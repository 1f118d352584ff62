(* Benchmark harness.

   Part 1 regenerates the paper's evaluation: Table 1 (its only numeric
   artifact) in full, followed by the sweep series that make the prose
   claims measurable (E4/E7/E8 of DESIGN.md).  Throughput is simulated
   time — the reproduction target.

   Part 2 (--quick) is the deterministic witness: a reduced cell set
   whose simulated cycles the committed BENCH_*.json chain freezes,
   plus the identity and allocation gates no unit test covers.  Host
   time is not measured here; perfbench/ is the host-time benchmark. *)

(* --- Part 1: the paper's numbers --- *)

let reproduce_table1 ?jobs () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "Part 1a: Table 1 reproduction (simulated time)@.";
  Fmt.pr "==================================================================@.@.";
  let rows = Workload.Table1.run ~iterations:2500 ~repeats:3 ?jobs () in
  Workload.Table1.render rows Format.std_formatter;
  (match rows with
  | desktop :: _ -> Workload.Table1.render_breakdown desktop Format.std_formatter
  | [] -> ());
  Fmt.pr "@."

let reproduce_sweeps ?jobs () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "Part 1b: sweep series (E4, E7, E8, E11, E12, cache ablation)@.";
  Fmt.pr "==================================================================@.@.";
  let render t = Workload.Sweeps.render t Format.std_formatter; Fmt.pr "@." in
  render (Workload.Sweeps.flush_latency ~iterations:600 ?jobs ());
  render (Workload.Sweeps.thread_scaling ~iterations:600 ?jobs ());
  render (Workload.Sweeps.log_cost_ablation ~iterations:600 ?jobs ());
  render (Workload.Sweeps.cache_ablation ~iterations:600 ?jobs ());
  render (Workload.Sweeps.read_ratio ~iterations:600 ?jobs ());
  Fmt.pr "%a@.@." Workload.Sweeps.pp_ledger
    (Workload.Sweeps.procrastination_ledger ~iterations:600
       ~crash_step:60_000 ?jobs ());
  Workload.Sweeps.render_ycsb
    (Workload.Sweeps.ycsb_table ~iterations:600 ?jobs Workload.Ycsb.A)
    Format.std_formatter;
  Fmt.pr "@.";
  Workload.Sweeps.render_ycsb
    (Workload.Sweeps.ycsb_table ~iterations:600 ?jobs Workload.Ycsb.B)
    Format.std_formatter;
  Fmt.pr "@."

let reproduce_fault_summary ?jobs () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "Part 1c: fault-injection spot check (E3/E9)@.";
  Fmt.pr "==================================================================@.@.";
  let base =
    {
      (Workload.Runner.calibrated_config Nvm.Config.desktop) with
      Workload.Runner.iterations = 400;
      workload = Workload.Runner.Counters { h_keys = 4096; preload = true };
    }
  in
  let campaign name cfg =
    let spec =
      {
        (Workload.Fault_injector.default_spec cfg) with
        Workload.Fault_injector.runs = 12;
        max_step = 60_000;
      }
    in
    let s = Workload.Fault_injector.run ?jobs spec in
    Fmt.pr "%-46s %d/%d consistent@." name s.Workload.Fault_injector.consistent_recoveries
      s.Workload.Fault_injector.crashes
  in
  campaign "mutex+log-only, process crash (TSP):"
    { base with Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only };
  campaign "non-blocking, process crash (TSP):"
    { base with Workload.Runner.variant = Workload.Runner.Nonblocking_map };
  campaign "B+-tree + log-only, process crash (TSP):"
    { base with Workload.Runner.variant = Workload.Runner.Mutex_btree Atlas.Mode.Log_only };
  campaign "log-only, power outage, no TSP (control):"
    {
      base with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      hardware = Tsp_core.Hardware.conventional_server;
      failure = Tsp_core.Failure_class.Power_outage;
    };
  Fmt.pr "@.";
  (* E16: the adversarial spectrum, on a cache small enough to evict
     (on the stock cache nothing is dirty-evicted and discard-class
     faults revert to a clean snapshot). *)
  Fmt.pr "adversarial spectrum (E16), mutex+log-only, 32 KiB cache:@.";
  let adv_base =
    {
      (Workload.Runner.calibrated_config
         { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 })
      with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      workload = Workload.Runner.Counters { h_keys = 256; preload = true };
      threads = 4;
      iterations = 200;
      n_buckets = 512;
      log_mib = 1;
    }
  in
  let spec =
    {
      (Workload.Fault_injector.default_spec adv_base) with
      Workload.Fault_injector.fault_models =
        List.map Option.some Nvm.Fault_model.reference;
      exhaustive =
        Some
          { Workload.Fault_injector.from_step = 40_000; window = 200; stride = 40 };
    }
  in
  let s = Workload.Fault_injector.run ?jobs spec in
  List.iter
    (fun (t : Workload.Fault_injector.model_tally) ->
      Fmt.pr "  %-22s %d/%d consistent, verdicts %d/%d/%d, %d violations (%d unexpected)@."
        (Workload.Fault_injector.model_label t.Workload.Fault_injector.model)
        t.Workload.Fault_injector.m_consistent t.Workload.Fault_injector.m_runs
        t.Workload.Fault_injector.m_clean t.Workload.Fault_injector.m_degraded
        t.Workload.Fault_injector.m_unrecoverable
        t.Workload.Fault_injector.m_violations
        t.Workload.Fault_injector.m_unexpected)
    s.Workload.Fault_injector.per_model;
  Fmt.pr "@."

(* --- Part 2: the deterministic witness (--quick) ---

   A reduced cell set recording simulated cycles and minor-heap
   allocation, written as JSON (schema tsp-bench-v3).  Keys are
   normalized to [a-z0-9_] so they survive renames of the pretty
   printers.  Simulated cycles are deterministic: check_json's
   --sim-cycles-chain demands that every sim_cycles entry of every
   committed BENCH_*.json reappears, byte-identical, in the fresh run.

   Besides the cells, --quick enforces the gates that live nowhere
   else:
   - the memory hierarchy alone allocates nothing per operation;
   - the durable-linearizability history recorder and the event tracer
     leave simulated cycles untouched (both timestamp with field reads:
     no RNG, no cycle charges);
   - batched quanta change neither cycles nor steps against the slice
     fast path, and allocate no more than it;
   - an exhaustive crash-window campaign under quanta finds no
     unexpected violation;
   - the sharded service's crashed shard recovers online and passes the
     strict durable-linearizability check;
   - every recovery engine leaves the eager engine's heap image, passes
     the heap audit, and is identical across job counts, and
     incremental recovery's outage is shorter than eager's;
   - the fence-complexity frontier is identical across job counts,
     every row is durably linearizable, and NVTraverse beats log-flush;
   - [Obs.Hist.add] allocates nothing and drops no sample.

   Identities a tier-1 test already asserts are left to it: the
   scheduler slow path (test_determinism), quanta off (test_quantum),
   a crash-free neighbour shard (test_service) and an untraced run
   (test_obs). *)

let normalize_key s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    s

(* Minor-heap words allocated while running [f].  The [Gc.minor_words]
   calls themselves box a float or two; cells run long enough that the
   constant is invisible, and the allocation gates assert per-op
   thresholds, not a literal zero. *)
let with_alloc f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* The hot path in isolation: one simulated thread hammering the device
   through the scheduler step hook at the default slice.  [quantum]
   additionally wires the batched-execution handle, so uncontended
   loads/stores bypass the hook entirely. *)
let hot_path_cell ~ops ~quantum =
  let cfg = Nvm.Config.with_region_size Nvm.Config.desktop (1024 * 1024) in
  let pmem = Nvm.Pmem.create cfg in
  let sched = Sched.Scheduler.create ~seed:7 ~cost_jitter:3 ~quantum () in
  ignore
    (Sched.Scheduler.spawn sched ~name:"hot" (fun () ->
         for i = 1 to ops do
           let addr = i * 8 land 0xFFF8 in
           Nvm.Pmem.store_int pmem addr i;
           ignore (Nvm.Pmem.load_int pmem addr : int);
           if i land 255 = 0 then begin
             Nvm.Pmem.flush pmem addr;
             Nvm.Pmem.fence pmem
           end
         done)
      : int);
  Nvm.Pmem.set_step_hook pmem (fun ~cost -> Sched.Scheduler.step sched ~cost);
  Nvm.Pmem.set_quantum pmem (Sched.Scheduler.quantum_handle sched);
  (match Sched.Scheduler.run sched with
  | Sched.Scheduler.Completed -> ()
  | _ -> failwith "hot-path cell did not complete");
  (Sched.Scheduler.elapsed_cycles sched, Sched.Scheduler.total_steps sched)

(* The memory hierarchy alone: a load/store/periodic-cas loop against
   the device with no scheduler attached, so every operation is cache
   bookkeeping plus the byte images.  Must not allocate.  Simulated
   cycles accumulate on the stats clock. *)
let raw_loadstore_cell ~ops =
  let cfg = Nvm.Config.with_region_size Nvm.Config.desktop (1024 * 1024) in
  let pmem = Nvm.Pmem.create cfg in
  let clock0 = (Nvm.Pmem.stats pmem).Nvm.Stats.clock in
  let acc = ref 0 in
  for i = 1 to ops do
    let addr = i * 8 land 0xFFF8 in
    Nvm.Pmem.store_int pmem addr i;
    acc := !acc + Nvm.Pmem.load_int pmem addr;
    if i land 1023 = 0 then
      ignore (Nvm.Pmem.cas_int pmem addr ~expected:i ~desired:(i + 1) : bool)
  done;
  ignore !acc;
  (Nvm.Pmem.stats pmem).Nvm.Stats.clock - clock0

let quick_table1_config platform variant =
  {
    (Workload.Runner.calibrated_config platform) with
    Workload.Runner.variant;
    iterations = 150;
    workload = Workload.Runner.Counters { h_keys = 2048; preload = true };
    n_buckets = 1024;
    log_mib = 2;
  }

(* JSON rendering primitives come from the shared telemetry writer:
   [Obs.Json.float_repr] renders non-finite counters (a cell with zero
   loads+stores has a NaN hit rate) as null rather than an unparseable
   token, and [Obs.Json.escape] is the one string escaper every emitter
   in the tree shares. *)
let json_float f = Obs.Json.float_repr f
let json_escape s = Obs.Json.escape s

let run_quick ~jobs ~out =
  let jobs = match jobs with Some j -> j | None -> Workload.Parallel.default_jobs () in
  (* The single-thread hot-path workload; the quantum crash campaign
     below reuses its shape. *)
  let hot1_config =
    {
      (Workload.Runner.calibrated_config Nvm.Config.desktop) with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      threads = 1;
      iterations = 4000;
      workload = Workload.Runner.Counters { h_keys = 2048; preload = true };
      n_buckets = 1024;
      log_mib = 2;
    }
  in
  (* Per-cell measurements: the Table 1 grid plus a single-thread cell
     that isolates the scheduler/cache hot path. *)
  let cells =
    List.map
      (fun (name, config) ->
        let r, minor_words = with_alloc (fun () -> Workload.Runner.run config) in
        if not (Workload.Runner.consistent r) then
          Fmt.failwith "quick bench: %s inconsistent (seed %d, %d sim cycles): %a"
            name config.Workload.Runner.seed r.Workload.Runner.elapsed_cycles
            Workload.Invariant.pp r.Workload.Runner.invariants;
        ( normalize_key name,
          r.Workload.Runner.elapsed_cycles,
          minor_words,
          Nvm.Stats.hit_rate r.Workload.Runner.device_stats ))
      (List.concat_map
         (fun (pname, platform) ->
           List.map
             (fun variant ->
               ( Printf.sprintf "table1_%s_%s" pname
                   (Workload.Runner.variant_to_string variant),
                 quick_table1_config platform variant ))
             Workload.Table1.variants)
         [ ("desktop", Nvm.Config.desktop); ("server", Nvm.Config.server) ]
      @ [ ("hot_path_log_only_1thread", hot1_config) ])
  in
  (* The allocation cell: the memory hierarchy alone.  Its contract is
     zero minor words per operation; the bench fails if it drifts (the
     threshold admits the [Gc.minor_words] float boxes, not a per-op
     leak).  The same cell backs the SoA-access entry of the A/B
     section. *)
  let raw_ops = 2_000_000 in
  let raw_cycles, raw_words =
    with_alloc (fun () -> raw_loadstore_cell ~ops:raw_ops)
  in
  let raw_words_per_op = raw_words /. float_of_int raw_ops in
  if raw_words_per_op > 0.01 then
    Fmt.failwith "quick bench: the device fast path allocates (%.4f minor words/op)"
      raw_words_per_op;
  (* The history recorder on vs off, one full workload run each.
     [Scheduler.now] reads the current thread's vclock without touching
     the RNG or charging cycles, so recording is invisible to the
     simulation — identical elapsed cycles are asserted. *)
  let hr_config instrument =
    {
      (Workload.Runner.calibrated_config Nvm.Config.desktop) with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      threads = 2;
      iterations = 800;
      workload = Workload.Runner.Counters { h_keys = 1024; preload = true };
      n_buckets = 1024;
      log_mib = 2;
      instrument;
    }
  in
  let hr_off, hr_off_words =
    with_alloc (fun () -> Workload.Runner.run (hr_config None))
  in
  let hr_recorder = ref None in
  let hr_instrument sched ops =
    let h = Check.History.create ~sched ~capacity:8192 () in
    hr_recorder := Some h;
    Check.History.wrap h ops
  in
  let hr_on, hr_on_words =
    with_alloc (fun () -> Workload.Runner.run (hr_config (Some hr_instrument)))
  in
  if
    hr_on.Workload.Runner.elapsed_cycles
    <> hr_off.Workload.Runner.elapsed_cycles
  then
    Fmt.failwith
      "quick bench: history recording perturbed the simulation (%d vs %d \
       cycles)"
      hr_on.Workload.Runner.elapsed_cycles
      hr_off.Workload.Runner.elapsed_cycles;
  let hr_ops =
    match !hr_recorder with
    | Some h -> Check.History.length h
    | None -> Fmt.failwith "quick bench: history instrument hook never ran"
  in
  (* The event tracer attached to the same workload.  Emission writes
     packed ints into a preallocated ring — no RNG, no cycle charges —
     so the traced run must match the recorder's uninstrumented leg,
     which is the same config with no tracer.  Every emit also feeds the
     dirty-exposure [Obs.Hist], so this is the histogram's sim-cycle
     witness too. *)
  let tc_tracer = Obs.Tracer.create ~ring_cap:65536 () in
  let tc_on, tc_on_words =
    with_alloc (fun () ->
        Workload.Runner.run
          { (hr_config None) with Workload.Runner.tracer = Some tc_tracer })
  in
  if
    tc_on.Workload.Runner.elapsed_cycles
    <> hr_off.Workload.Runner.elapsed_cycles
  then
    Fmt.failwith
      "quick bench: event tracing perturbed the simulation (%d vs %d cycles)"
      tc_on.Workload.Runner.elapsed_cycles
      hr_off.Workload.Runner.elapsed_cycles;
  let tc_events = Obs.Tracer.emitted tc_tracer in
  (* Batched-quantum execution on the single-thread hot path, quanta on
     vs the slice fast path alone.  Both legs must agree on simulated
     cycles and step counts; the slice-only leg is also the
     sched_fast_path witness.  The quantum itself allocates nothing, so
     the on leg's minor words are guarded against the slice-only
     leg's. *)
  let qb_ops = 400_000 in
  let qb_on, qb_on_words =
    with_alloc (fun () -> hot_path_cell ~ops:qb_ops ~quantum:true)
  in
  let qb_slice, qb_slice_words =
    with_alloc (fun () -> hot_path_cell ~ops:qb_ops ~quantum:false)
  in
  if qb_on <> qb_slice then
    Fmt.failwith
      "quick bench: quantum batching changed the simulation (%d/%d vs %d/%d \
       cycles/steps)"
      (fst qb_on) (snd qb_on) (fst qb_slice) (snd qb_slice);
  if qb_on_words > (qb_slice_words *. 1.10) +. 65536.0 then
    Fmt.failwith
      "quick bench: quantum batching allocates (%.0f minor words vs %.0f \
       without quanta)"
      qb_on_words qb_slice_words;
  (* An exhaustive crash-window fault campaign under quanta: every crash
     point must recover without an unexpected violation. *)
  let qc =
    Workload.Fault_injector.run ~jobs
      {
        (Workload.Fault_injector.default_spec
           {
             hot1_config with
             Workload.Runner.threads = 2;
             iterations = 300;
             workload = Workload.Runner.Counters { h_keys = 1024; preload = true };
           })
        with
        Workload.Fault_injector.exhaustive =
          Some
            { Workload.Fault_injector.from_step = 30_000; window = 1_500; stride = 150 };
      }
  in
  if qc.Workload.Fault_injector.unexpected_violations <> 0 then
    Fmt.failwith "quick bench: quantum crash campaign found violations";
  (* The sharded KV service with one shard crashed and recovered online.
     The snapshot records the victim's timeline (down, recovery, back
     up) with its final scheduler clock as the sim_cycles witness; the
     victim must come back and pass the strict DL check. *)
  let sv =
    Service.Serve.run ~jobs
      {
        Service.Serve.smoke_config with
        Service.Serve.shards = 3;
        seed = 23;
        keys = 2048;
        requests = 1200;
        rate_per_mcycle = 250.;
        crash_shard = Some 1;
        n_buckets = Some 512;
        windows = 6;
      }
  in
  let sv_victim = sv.Service.Serve.shards.(1) in
  if not (String.equal sv_victim.Service.Serve.outcome "crashed+recovered")
  then
    Fmt.failwith "quick bench: service victim shard outcome is %S"
      sv_victim.Service.Serve.outcome;
  let sv_rec =
    match sv_victim.Service.Serve.recovery with
    | Some r -> r
    | None -> Fmt.failwith "quick bench: service victim has no recovery report"
  in
  (match sv_rec.Service.Serve.dl with
  | Some v when Check.Dl.is_explained v -> ()
  | Some v ->
      Fmt.failwith "quick bench: service victim failed the DL check: %a"
        Check.Dl.pp_verdict v
  | None ->
      Fmt.failwith "quick bench: service victim DL check was skipped (%s)"
        sv_rec.Service.Serve.dl_note);
  let sv_served, sv_shed, sv_timed_out =
    Array.fold_left
      (fun (srv, shd, t_o) (s : Service.Serve.shard_report) ->
        ( srv + s.Service.Serve.served,
          shd + s.Service.Serve.shed,
          t_o + s.Service.Serve.timed_out ))
      (0, 0, 0) sv.Service.Serve.shards
  in
  (* Recovery at scale (E22).  The same deterministic crashed heap
     recovered eagerly (per-word costed cache simulation), with the
     streamed parallel engine (peek discovery + one analytic
     line-grained bill) and incrementally.  All must leave a
     byte-identical heap image, and the parallel cells must be
     structurally identical at every job count.  Incremental mode's
     outage is the availability headline: near-constant while full
     collections grow linearly with the population. *)
  let module RS = Workload.Recovery_scaling in
  let rs_variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only in
  let rs_cell ~objects ~mode =
    RS.run_cell ~variant:rs_variant ~objects ~mode ~seed:29 ~touches:48 ()
  in
  let rs_check ~objects (eager : RS.cell) (other : RS.cell) =
    if other.RS.image_hash <> eager.RS.image_hash then
      Fmt.failwith
        "quick bench: recovery mode %s left a different heap image than \
         eager at %d objects (%x vs %x)"
        (Workload.Machine.recovery_mode_to_string other.RS.mode)
        objects other.RS.image_hash eager.RS.image_hash;
    if not (eager.RS.heap_audit_ok && other.RS.heap_audit_ok) then
      Fmt.failwith "quick bench: recovery cell failed the heap audit"
  in
  let rs_curve =
    List.map
      (fun objects ->
        let eager = rs_cell ~objects ~mode:Workload.Machine.Eager in
        let par = rs_cell ~objects ~mode:(Workload.Machine.Parallel_gc 2) in
        let inc = rs_cell ~objects ~mode:Workload.Machine.Incremental_gc in
        rs_check ~objects eager par;
        rs_check ~objects eager inc;
        if inc.RS.outage_cycles >= eager.RS.outage_cycles then
          Fmt.failwith
            "quick bench: incremental outage (%d cycles) not shorter than \
             eager (%d) at %d objects"
            inc.RS.outage_cycles eager.RS.outage_cycles objects;
        (objects, eager, par, inc))
      [ 20_000; 60_000 ]
  in
  (* Jobs-identity witness: parallel:1 must match parallel:2 field for
     field (mode and wall clock aside). *)
  let rs_p1 = rs_cell ~objects:20_000 ~mode:(Workload.Machine.Parallel_gc 1) in
  (match rs_curve with
  | (20_000, _, p2, _) :: _ ->
      if not (RS.cells_match rs_p1 p2) then
        Fmt.failwith
          "quick bench: parallel recovery diverges across job counts \
           (determinism violation)"
  | _ -> assert false);
  let _, eager60, _, inc60 = List.nth rs_curve 1 in
  let rs_big = 1_000_000 in
  let rs_big_eager = rs_cell ~objects:rs_big ~mode:Workload.Machine.Eager in
  let rs_big_par =
    rs_cell ~objects:rs_big ~mode:(Workload.Machine.Parallel_gc 2)
  in
  rs_check ~objects:rs_big rs_big_eager rs_big_par;
  (* The fence-complexity frontier (E23).  Three designs — eager
     log-flush fortification, the plain lock-free skip list, and its
     NVTraverse transformation — on one identical counter workload, with
     both legs of each row (traced run + strict-DL crash point) computed
     under --jobs 1 and under the requested fan-out.  The rows must be
     identical field-for-field across job counts (params are drawn
     before the fan-out and each machine is private), and the frontier
     ordering itself is asserted: NVTraverse strictly fewer flushes per
     op than log-flush at equal or better throughput. *)
  let ff_run jobs =
    Workload.Frontier.run ~jobs
      ~variants:
        [
          Workload.Runner.Mutex_map Atlas.Mode.Log_flush;
          Workload.Runner.Nonblocking_map;
          Workload.Runner.Nvtraverse_map;
        ]
      ~platform:Nvm.Config.desktop ()
  in
  let ff_rows = ff_run 1 in
  let ff_rows_jn = ff_run jobs in
  if ff_rows <> ff_rows_jn then
    Fmt.failwith
      "quick bench: frontier rows diverge across job counts (determinism \
       violation):@.--- jobs 1 ---@.%a@.--- jobs %d ---@.%a"
      Workload.Frontier.pp ff_rows jobs Workload.Frontier.pp ff_rows_jn;
  List.iter
    (fun (r : Workload.Frontier.row) ->
      if not r.Workload.Frontier.dl_explained then
        Fmt.failwith "quick bench: frontier row %s is not durably linearizable"
          (Workload.Machine.variant_to_cli_string r.Workload.Frontier.variant))
    ff_rows;
  let ff_find v =
    match Workload.Frontier.find ff_rows v with
    | Some r -> r
    | None -> Fmt.failwith "quick bench: frontier row missing"
  in
  let ff_nvt = ff_find Workload.Runner.Nvtraverse_map in
  let ff_lf = ff_find (Workload.Runner.Mutex_map Atlas.Mode.Log_flush) in
  let ff_nb = ff_find Workload.Runner.Nonblocking_map in
  if not (Workload.Frontier.nvtraverse_beats_logflush ff_rows) then
    Fmt.failwith
      "quick bench: NVTraverse (%.3f flushes/op, %.2f Miters/s) does not \
       beat log-flush (%.3f flushes/op, %.2f Miters/s)"
      ff_nvt.Workload.Frontier.flushes_per_op ff_nvt.Workload.Frontier.miters
      ff_lf.Workload.Frontier.flushes_per_op ff_lf.Workload.Frontier.miters;
  (* [Obs.Hist] sits on two hot paths — {!Obs.Tracer.emit} feeds the
     dirty-exposure histogram and the Serve latency sink keeps
     log-bucketed histograms — so its add loop must allocate nothing and
     count every sample. *)
  let hi_ops = 2_000_000 in
  let hi_h = Obs.Hist.create () in
  let (), hi_words =
    with_alloc (fun () ->
        for i = 1 to hi_ops do
          Obs.Hist.add hi_h (i * 2654435761 land 0xFFFFF)
        done)
  in
  let hi_words_per_op = hi_words /. float_of_int hi_ops in
  if hi_words_per_op > 0.01 then
    Fmt.failwith "quick bench: Obs.Hist.add allocates (%.4f minor words/op)"
      hi_words_per_op;
  if Obs.Hist.count hi_h <> hi_ops then
    Fmt.failwith "quick bench: Obs.Hist dropped samples (%d of %d)"
      (Obs.Hist.count hi_h) hi_ops;
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n";
  pf "  \"schema\": \"tsp-bench-v3\",\n";
  pf "  \"jobs\": %d,\n" jobs;
  pf "  \"cells\": {\n";
  List.iter
    (fun (name, sim_cycles, minor_words, hit_rate) ->
      pf "    \"%s\": { \"sim_cycles\": %d, \"minor_words\": %.0f, \
          \"hit_rate\": %s },\n"
        (json_escape name) sim_cycles minor_words (json_float hit_rate))
    cells;
  List.iter
    (fun (objects, eager, par, inc) ->
      let cell name (c : RS.cell) =
        pf "    \"recovery_%s_%dk\": { \"sim_cycles\": %d, \
            \"background_cycles\": %d },\n"
          name (objects / 1000) c.RS.outage_cycles c.RS.background_cycles
      in
      cell "eager" eager;
      cell "parallel" par;
      cell "incremental" inc)
    rs_curve;
  pf "    \"recovery_eager_1000k\": { \"sim_cycles\": %d },\n"
    rs_big_eager.RS.outage_cycles;
  pf "    \"recovery_parallel_1000k\": { \"sim_cycles\": %d },\n"
    rs_big_par.RS.outage_cycles;
  List.iter
    (fun (r : Workload.Frontier.row) ->
      pf "    \"frontier_%s\": { \"sim_cycles\": %d, \"completed_ops\": %d, \
          \"flushes_per_op\": %.3f, \"fences_per_op\": %.3f, \
          \"appends_per_op\": %.3f },\n"
        (normalize_key
           (Workload.Machine.variant_to_cli_string r.Workload.Frontier.variant))
        r.Workload.Frontier.elapsed_cycles r.Workload.Frontier.completed_ops
        r.Workload.Frontier.flushes_per_op r.Workload.Frontier.fences_per_op
        r.Workload.Frontier.appends_per_op)
    ff_rows;
  pf "    \"hot_path_loadstore_raw\": { \"sim_cycles\": %d, \
       \"minor_words\": %.0f, \"ops\": %d, \"minor_words_per_op\": %.4f }\n"
    raw_cycles raw_words raw_ops raw_words_per_op;
  pf "  },\n";
  pf "  \"ab\": {\n";
  pf "    \"sched_fast_path\": { \"sim_cycles\": %d, \"total_steps\": %d },\n"
    (fst qb_slice) (snd qb_slice);
  pf "    \"soa_unboxed_access\": { \"sim_cycles\": %d, \"minor_words\": %.0f },\n"
    raw_cycles raw_words;
  pf "    \"history_recording\": { \"sim_cycles\": %d, \"on_minor_words\": %.0f, \
       \"off_minor_words\": %.0f, \"ops_recorded\": %d },\n"
    hr_on.Workload.Runner.elapsed_cycles hr_on_words hr_off_words hr_ops;
  pf "    \"trace_recording\": { \"sim_cycles\": %d, \"minor_words\": %.0f, \
       \"events_emitted\": %d },\n"
    tc_on.Workload.Runner.elapsed_cycles tc_on_words tc_events;
  pf "    \"quantum_batching\": { \"sim_cycles\": %d, \"total_steps\": %d, \
       \"on_minor_words\": %.0f, \"slice_only_minor_words\": %.0f },\n"
    (fst qb_on) (snd qb_on) qb_on_words qb_slice_words;
  pf "    \"quantum_crash_campaign\": { \"crash_points\": %d, \"crashes\": %d, \
       \"violations\": %d },\n"
    qc.Workload.Fault_injector.total qc.Workload.Fault_injector.crashes
    qc.Workload.Fault_injector.violations;
  pf "    \"shard_service\": { \"sim_cycles\": %d, \"t_down\": %d, \
       \"t_up\": %d, \"recovery_cycles\": %d, \"rescued_lines\": %d, \
       \"served\": %d, \"shed\": %d, \"timed_out\": %d },\n"
    sv_victim.Service.Serve.elapsed_cycles sv_rec.Service.Serve.t_down
    sv_rec.Service.Serve.t_up sv_rec.Service.Serve.recovery_cycles
    sv_rec.Service.Serve.rescued_lines sv_served sv_shed sv_timed_out;
  pf "    \"recovery_scaling\": { \"sim_cycles\": %d, \
      \"parallel_sim_cycles\": %d, \"objects\": %d, \
      \"incremental_outage_cycles\": %d, \
      \"incremental_background_cycles\": %d, \"jobs_identity\": true },\n"
    rs_big_eager.RS.outage_cycles rs_big_par.RS.outage_cycles rs_big
    inc60.RS.outage_cycles inc60.RS.background_cycles;
  pf "    \"fence_frontier\": { \"sim_cycles\": %d, \
      \"nvtraverse_flushes_per_op\": %.3f, \"logflush_flushes_per_op\": %.3f, \
      \"nonblocking_flushes_per_op\": %.3f, \"nvtraverse_miters\": %.2f, \
      \"logflush_miters\": %.2f, \"jobs_identity\": true },\n"
    (List.fold_left
       (fun a (r : Workload.Frontier.row) ->
         a + r.Workload.Frontier.elapsed_cycles)
       0 ff_rows)
    ff_nvt.Workload.Frontier.flushes_per_op
    ff_lf.Workload.Frontier.flushes_per_op
    ff_nb.Workload.Frontier.flushes_per_op ff_nvt.Workload.Frontier.miters
    ff_lf.Workload.Frontier.miters;
  pf "    \"hist_instrumentation\": { \"sim_cycles\": %d, \
       \"traced_sim_cycles_match\": true, \"adds\": %d, \
       \"minor_words\": %.0f, \"minor_words_per_add\": %.4f, \"p50\": %d, \
       \"p99\": %d, \"p999\": %d }\n"
    tc_on.Workload.Runner.elapsed_cycles hi_ops hi_words hi_words_per_op
    (Obs.Hist.quantile hi_h 0.5)
    (Obs.Hist.quantile hi_h 0.99)
    (Obs.Hist.quantile hi_h 0.999);
  pf "  }\n";
  pf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents b);
  close_out oc;
  Fmt.pr "quick bench: snapshot -> %s@." out;
  Fmt.pr "  device fast path: %.4f minor words/op@." raw_words_per_op;
  Fmt.pr "  history recording: %d ops recorded (identical sim cycles)@." hr_ops;
  Fmt.pr "  event tracing: %d events emitted (identical sim cycles)@." tc_events;
  Fmt.pr
    "  quantum batching: %d steps, identical to the slice fast path, %.0f vs \
     %.0f minor words@."
    (snd qb_on) qb_on_words qb_slice_words;
  Fmt.pr "  quantum crash campaign: %d crash points, no unexpected violation@."
    qc.Workload.Fault_injector.total;
  Fmt.pr
    "  shard service: victim down %d cycles (%d lines rescued), DL check \
     passed@."
    sv_rec.Service.Serve.recovery_cycles sv_rec.Service.Serve.rescued_lines;
  Fmt.pr
    "  recovery at scale: identical heap images up to 10^6 objects; \
     incremental outage %d cycles vs eager %d@."
    inc60.RS.outage_cycles eager60.RS.outage_cycles;
  Fmt.pr
    "  fence frontier: nvtraverse %.3f flushes/op at %.2f Miters/s vs \
     log-flush %.3f at %.2f (rows identical across --jobs)@."
    ff_nvt.Workload.Frontier.flushes_per_op ff_nvt.Workload.Frontier.miters
    ff_lf.Workload.Frontier.flushes_per_op ff_lf.Workload.Frontier.miters;
  Fmt.pr "  hist instrumentation: %.4f minor words/add@." hi_words_per_op

(* --- Entry point --- *)

let usage () =
  prerr_endline
    "usage: bench [--quick] [--jobs N|auto] [--out FILE]\n\
     \  (no flags)      full run: the paper reproduction (simulated time)\n\
     \  --quick         deterministic witness: writes a sim-cycles JSON\n\
     \                  snapshot and enforces the identity and allocation\n\
     \                  gates (host time: python3 perfbench/run.py)\n\
     \  --jobs N|auto   fan independent cells across N domains; auto (the\n\
     \                  default) clamps to the host's cores and runs\n\
     \                  sequentially when that is 1\n\
     \  --out FILE      where --quick writes its JSON (default\n\
     \                  bench_quick.json)";
  exit 2

let () =
  let quick = ref false and jobs = ref None and out = ref "bench_quick.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--jobs" :: "auto" :: rest -> jobs := None; parse rest
    | "--jobs" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := Some n; parse rest
        | _ -> usage ()
      end
    | "--out" :: f :: rest -> out := f; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !quick then run_quick ~jobs:!jobs ~out:!out
  else begin
    reproduce_table1 ?jobs:!jobs ();
    reproduce_sweeps ?jobs:!jobs ();
    reproduce_fault_summary ?jobs:!jobs ()
  end
