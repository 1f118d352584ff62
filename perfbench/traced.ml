(* The traced run: the same work as an untraced repetition, driven one
   public call at a time so each layer's host time can be charged to it
   from outside.  Spans are kept in memory and reduced to per-layer
   metrics when the workload ends.

   The step-by-step driver re-derives what [Runner.run] does for the
   counter workload; before any layer number is reported it is checked
   against [Runner.run] itself on every traced crash point (steps,
   cycles, recovery verdict, dump), and the recovery split against the
   image [Machine.recover] leaves behind. *)

module W = Workloads
module Runner = Workload.Runner
module Machine = Workload.Machine
module FI = Workload.Fault_injector
module CC = Workload.Check_campaign
module Key_space = Workload.Key_space
module Rng = Sched.Sim_rng
module Heap = Pheap.Heap
module Heap_gc = Pheap.Heap_gc

(* ---- spans ---------------------------------------------------------- *)

(* name -> every call's counter deltas, most recent first *)
let spans : (string, Probe.reading list) Hashtbl.t = Hashtbl.create 32

let span name f =
  let r, c = Probe.measure f in
  let calls = Option.value (Hashtbl.find_opt spans name) ~default:[] in
  Hashtbl.replace spans name (c :: calls);
  r

let calls name = Option.value (Hashtbl.find_opt spans name) ~default:[]
let total name = List.fold_left Probe.add Probe.zero (calls name)

let median_of f name =
  match calls name with [] -> 0. | cs -> Probe.median (List.map f cs)

let median_wall = median_of (fun c -> c.Probe.wall)

(* Equivalence failures; any entry withholds every layer number. *)
let mismatches = ref []

let expect what ok = if not ok then mismatches := what :: !mismatches

(* ---- the step-by-step counter-workload driver ----------------------- *)

let machine_spec (c : Runner.config) =
  {
    Machine.platform = c.Runner.platform;
    variant = c.Runner.variant;
    threads = c.Runner.threads;
    seed = c.Runner.seed;
    journal = c.Runner.journal;
    n_buckets = c.Runner.n_buckets;
    log_mib = c.Runner.log_mib;
    atlas_costs = c.Runner.atlas_costs;
    cost_jitter = c.Runner.cost_jitter;
    hash_op_cycles = c.Runner.hash_op_cycles;
    skip_op_cycles = c.Runner.skip_op_cycles;
    value_words = 1;
    quantum = c.Runner.quantum;
    deterministic_slice = c.Runner.deterministic_slice;
    tracer = None;
    hardware = c.Runner.hardware;
    failure = c.Runner.failure;
  }

let h_keys (c : Runner.config) =
  match c.Runner.workload with
  | Runner.Counters { h_keys; preload = true } -> h_keys
  | _ -> invalid_arg "Traced: only the preloaded counter workload is stepped"

let preload (c : Runner.config) (map : Machine.map) =
  for tid = 0 to c.Runner.threads - 1 do
    map.Machine.set_plain ~key:(Key_space.c1 ~tid) ~value:0L;
    map.Machine.set_plain ~key:(Key_space.c2 ~tid) ~value:0L
  done;
  for i = 0 to h_keys c - 1 do
    map.Machine.set_plain ~key:(Key_space.h_key i) ~value:0L
  done

(* One worker of the Section 5.1 counter workload, with the RNG stream
   [Runner] gives thread [tid]. *)
let counter_body (c : Runner.config) pmem (ops : Tsp_maps.Map_intf.ops) ~tid
    ~progress () =
  let rng = Rng.create ~seed:(c.Runner.seed + (1000 * (tid + 1))) in
  let h = h_keys c in
  for i = 1 to c.Runner.iterations do
    Nvm.Pmem.charge pmem c.Runner.iter_cycles;
    let v = Int64.of_int i in
    ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c1 ~tid) ~value:v;
    let k = Key_space.h_key (Rng.int rng h) in
    ops.Tsp_maps.Map_intf.incr ~tid ~key:k ~by:1L;
    ops.Tsp_maps.Map_intf.set ~tid ~key:(Key_space.c2 ~tid) ~value:v;
    progress.(tid) <- i
  done

type stepped = {
  outcome : Runner.outcome;
  total_steps : int;
  elapsed_cycles : int;
  verdict : string;  (** recovery verdict, "" without a crash *)
  entries : (int * int64) list;
  execute_s : float;
  history : Check.History.t option;
}

let structure_ok (c : Runner.config) heap ~root =
  let ok = function Ok () -> true | Error _ -> false in
  match c.Runner.variant with
  | Machine.Nvtraverse_map -> ok (Tsp_maps.Nvtraverse_skiplist.check_plain heap ~root)
  | Machine.Delayfree_map -> ok (Tsp_maps.Delayfree_map.check_plain heap ~root)
  | Machine.Mutex_btree _ -> ok (Tsp_maps.Btree.check_plain heap ~root)
  | Machine.Mutex_map _ | Machine.Nonblocking_map -> true

(* scheduler steps executed under the "workload.execute" span *)
let executed_steps = ref 0

let verdict_string v = Fmt.str "%a" Atlas.Recovery.pp_verdict v

(* One run of [c], one public call per span.  [record] interposes the
   DL history recorder exactly where [Runner]'s instrument hook does. *)
let step_run ?(record = false) (c : Runner.config) =
  let m =
    span "workload.machine_create" (fun () -> Machine.create (machine_spec c))
  in
  let history =
    if record then begin
      let h = Check.History.create ~sched:m.Machine.sched () in
      Machine.instrument m (Check.History.wrap h);
      Some h
    end
    else None
  in
  let map = m.Machine.map in
  span "workload.preload" (fun () ->
      preload c map;
      Nvm.Pmem.persist_all m.Machine.pmem);
  let sched = m.Machine.sched in
  let progress = Array.make c.Runner.threads 0 in
  for tid = 0 to c.Runner.threads - 1 do
    ignore
      (Sched.Scheduler.spawn sched ~name:(Printf.sprintf "worker-%d" tid)
         (counter_body c m.Machine.pmem map.Machine.map_ops ~tid ~progress)
        : int)
  done;
  let outcome =
    span "workload.execute" (fun () ->
        Machine.execute ?crash_at_step:c.Runner.crash_at_step m)
  in
  executed_steps := !executed_steps + Sched.Scheduler.total_steps sched;
  let elapsed_cycles = Sched.Scheduler.elapsed_cycles sched in
  let dump heap =
    span "workload.dump_verify" (fun () ->
        let root = Heap.get_root heap in
        if structure_ok c heap ~root then begin
          let entries =
            map.Machine.fold_root heap ~root (fun k v acc -> (k, v) :: acc)
          in
          ignore (Workload.Invariant.counters ~entries ~threads:c.Runner.threads);
          entries
        end
        else [])
  in
  let outcome, verdict, entries =
    match outcome with
    | Sched.Scheduler.Completed -> (Runner.Completed, "", dump m.Machine.heap)
    | Sched.Scheduler.Deadlocked { blocked } ->
        (Runner.Deadlocked blocked, "", [])
    | Sched.Scheduler.Crashed { at_step } ->
        ignore
          (span "workload.crash_execute" (fun () ->
               Machine.crash_execute ?fault:c.Runner.fault_model m)
            : Tsp_core.Crash_executor.execution);
        let r =
          span "workload.recover" (fun () ->
              let r = Machine.recover ~mode:c.Runner.recovery_mode m in
              ignore
                (Machine.finish_background_gc m
                  : (Heap_gc.stats * Heap_gc.quarantine) option);
              r)
        in
        let entries =
          match r.Machine.heap with
          | Some h when r.Machine.heap_audit_ok -> (
              try dump h with Heap.Corrupt _ | Invalid_argument _ -> [])
          | _ -> []
        in
        (Runner.Crashed at_step, verdict_string r.Machine.recovery_verdict, entries)
  in
  {
    outcome;
    total_steps = Sched.Scheduler.total_steps sched;
    elapsed_cycles;
    verdict;
    entries;
    execute_s = (List.hd (calls "workload.execute")).Probe.wall;
    history;
  }

(* [Runner.run] on the same config: the reference every stepped run is
   held to.  Not part of the traced wall time. *)
let same_as_runner ~what (r : Runner.result) (s : stepped) =
  let verdict =
    match r.Runner.crash with
    | Some k -> verdict_string k.Runner.recovery_verdict
    | None -> ""
  in
  expect (what ^ ": outcome") (r.Runner.outcome = s.outcome);
  expect (what ^ ": total_steps") (r.Runner.total_steps = s.total_steps);
  expect (what ^ ": elapsed_cycles")
    (r.Runner.elapsed_cycles = s.elapsed_cycles);
  expect (what ^ ": recovery verdict") (String.equal verdict s.verdict);
  expect (what ^ ": dump") (r.Runner.entries = s.entries)

let check_against_runner ~what c s = same_as_runner ~what (Runner.run c) s

(* ---- per-workload traced units -------------------------------------- *)

type result = {
  traced_wall : float;  (** every traced call: the base of the shares *)
  comparable_wall : float;
      (** the traced calls that redo the untraced repetition's timed
          region: [comparable_wall - untraced.timed] is the overhead *)
  untraced : W.rep;  (** one untraced repetition of the same work *)
  extra : (string * float) list;  (** workload-specific ratios *)
}

(* Standalone device creation at the workload's platform: the one cost
   that cannot be split out of [Machine.create] from outside. *)
let time_pmem_create platform =
  for _ = 1 to 5 do
    Probe.settle ();
    ignore
      (span "nvm.pmem_create" (fun () -> Nvm.Pmem.create platform) : Nvm.Pmem.t)
  done

(* [f ()], adding its wall time to [wall] *)
let timed_wall wall f =
  let a = Probe.now () in
  let r = f () in
  wall := !wall +. (Probe.now () -. a);
  r

let crash_campaign t ~seed =
  let untraced, steps, fis, cc = W.crash_campaign_run t ~seed in
  Probe.settle ();
  let crashed = ref 0 and points = ref 0 in
  let plain_exec = Hashtbl.create 8 in
  let wall = ref 0. in
  List.iter2
    (fun (variant, total_steps) (s : FI.summary) ->
      let w = W.window_of ~total_steps in
      List.iter
        (fun fault ->
          let steps =
            List.init W.crash_points (fun i -> w.FI.from_step + (i * w.FI.stride))
          in
          List.iter
            (fun crash_step ->
              let c =
                { (W.crash_base ~variant ~seed) with
                  Runner.crash_at_step = Some crash_step; fault_model = fault }
              in
              let r = timed_wall wall (fun () -> step_run c) in
              incr points;
              (match r.outcome with Runner.Crashed _ -> incr crashed | _ -> ());
              if fault = None && variant = W.log_only then
                Hashtbl.replace plain_exec crash_step r.execute_s;
              check_against_runner
                ~what:
                  (Fmt.str "%s@%d/%s"
                     (Machine.variant_to_cli_string variant)
                     crash_step (FI.model_label fault))
                c r)
            steps)
        W.fault_models;
      expect "fault campaign size"
        (s.FI.total = W.crash_points * List.length W.fault_models))
    steps fis;
  (* the strict-DL window: recorded runs, then the checker *)
  let capped = ref 0 and keys = ref 0 and wrapped = ref 0. and plain = ref 0. in
  List.iter
    (fun (p : CC.point) ->
      let base = W.crash_base ~variant:W.log_only ~seed in
      let c = { base with Runner.crash_at_step = Some p.CC.crash_step } in
      let r = timed_wall wall (fun () -> step_run ~record:true c) in
      let h = Option.get r.history in
      let v =
        timed_wall wall (fun () ->
            span "check.dl_check" (fun () ->
                Check.Dl.check ~initial:(CC.initial_entries c) ~history:h
                  ~recovered:r.entries))
      in
      let stats_of = function
        | Check.Dl.Explained s | Check.Dl.Violation (s, _) -> s
      in
      let stats = stats_of v in
      expect "DL verdict"
        (Check.Dl.is_explained v = Check.Dl.is_explained p.CC.dl
        && stats = stats_of p.CC.dl);
      capped := !capped + stats.Check.Dl.capped;
      keys := !keys + stats.Check.Dl.keys;
      (match Hashtbl.find_opt plain_exec p.CC.crash_step with
      | Some e ->
          wrapped := !wrapped +. r.execute_s;
          plain := !plain +. e
      | None -> expect "DL point shares the fault window" false);
      let recorder sched ops =
        Check.History.wrap (Check.History.create ~sched ()) ops
      in
      check_against_runner ~what:(Fmt.str "dl@%d" p.CC.crash_step)
        { c with Runner.instrument = Some recorder } r)
    cc.CC.points;
  timed_wall wall (fun () ->
      span "obs.report" (fun () -> ignore (W.render_campaigns fis cc : int)));
  time_pmem_create W.smoke_platform;
  {
    traced_wall = !wall;
    comparable_wall = !wall;
    untraced;
    extra =
      [
        ("workload.crashed_frac", float !crashed /. float (max 1 !points));
        ("check.capped_frac", float !capped /. float (max 1 !keys));
        ("check.history_overhead_pct", 100. *. (!wrapped -. !plain) /. !plain);
      ];
  }

let table1_steady t ~seed =
  let untraced, results = W.table1_run t ~seed in
  Probe.settle ();
  let wall = ref 0. in
  List.iter2
    (fun variant (reference : Runner.result) ->
      let c = W.table1_config ~variant ~seed ~iterations:W.table1_iterations in
      let r = timed_wall wall (fun () -> step_run c) in
      same_as_runner ~what:(Machine.variant_to_cli_string variant) reference r)
    W.table1_variants results;
  time_pmem_create Nvm.Config.desktop;
  { traced_wall = !wall; comparable_wall = !wall; untraced; extra = [] }

(* [Serve.run] generates its stream and creates its shards' devices
   inside; the standalone [Arrival.generate] and [Pmem.create] calls
   stand in for those, outside the traced wall time. *)
let serve_crash t ~seed =
  let cfg = W.serve_config ~seed in
  let untraced = W.serve_rep t ~seed in
  Probe.settle ();
  let wall = ref 0. in
  let r =
    timed_wall wall (fun () ->
        span "service.serve_run" (fun () -> W.Serve.run ~jobs:W.jobs cfg))
  in
  ignore
    (timed_wall wall (fun () -> span "obs.report" (fun () -> W.render_serve r))
      : int);
  let routed = span "service.arrival" (fun () -> W.routed_counts cfg) in
  W.check_serve t cfg ~routed r;
  time_pmem_create cfg.W.Serve.platform;
  { traced_wall = !wall; comparable_wall = !wall; untraced; extra = [] }

(* The calls [Machine.recover] makes, in its order. *)
let recovery_layers =
  [
    "nvm.pmem_recover";
    "pheap.heap_attach";
    "atlas.recovery_run";
    "pheap.gc";
    "pheap.audit";
  ]

(* [Machine.recover] one public call at a time, in its order; the image
   it leaves must hash like the one [Machine.recover] leaves. *)
let stepped_recover (m : Machine.t) ~mode =
  (* each call is also charged to its leg, "<layer>.eager" or
     "<layer>.incremental": the two recovery engines side by side *)
  let span name f =
    let r, c = Probe.measure f in
    let leg = name ^ "." ^ Machine.recovery_mode_to_string mode in
    List.iter (fun n -> Hashtbl.replace spans n (c :: calls n)) [ name; leg ];
    r
  in
  let spec = m.Machine.spec in
  let log_base = Machine.log_base spec in
  let fanout =
    match mode with
    | Machine.Incremental_gc ->
        Some (fun tasks -> List.iter (fun f -> f ()) tasks)
    | Machine.Eager | Machine.Parallel_gc _ -> None
  in
  span "nvm.pmem_recover" (fun () -> Nvm.Pmem.recover m.Machine.pmem);
  let heap =
    span "pheap.heap_attach" (fun () ->
        Heap.attach m.Machine.pmem ~base:0 ~size:log_base)
  in
  let report =
    span "atlas.recovery_run" (fun () ->
        let scan = Option.map (fun f -> Atlas.Recovery.Streamed_scan f) fanout in
        Atlas.Recovery.run ?scan ~heap ~log_base ())
  in
  ignore
    (span "pheap.gc" (fun () ->
         match mode with
         | Machine.Incremental_gc ->
             let inc = Heap_gc.Incremental.start ?fanout heap in
             ignore
               (Heap_gc.Incremental.plan inc : Heap_gc.stats * Heap_gc.quarantine);
             Heap_gc.Incremental.finish inc
         | Machine.Eager | Machine.Parallel_gc _ -> Heap_gc.collect_graceful heap)
      : Heap_gc.stats * Heap_gc.quarantine);
  let audit = span "pheap.audit" (fun () -> Heap_gc.verify heap) in
  expect "stepped recovery clean"
    (report.Atlas.Recovery.verdict = Atlas.Recovery.Clean && audit = Ok ());
  W.image_of m

let recover_1m t ~seed =
  let untraced, references = W.recover_run t ~seed in
  let wall = ref 0. in
  List.iter
    (fun (mode, reference) ->
      Probe.settle ();
      let hash =
        timed_wall wall (fun () ->
            let m =
              span "workload.populate" (fun () ->
                  Workload.Populate.build (W.recover_spec ~seed)
                    ~objects:W.recover_objects ~seed)
            in
            ignore
              (span "workload.crash_execute" (fun () -> Machine.crash_execute m)
                : Tsp_core.Crash_executor.execution);
            stepped_recover m ~mode)
      in
      expect
        (Machine.recovery_mode_to_string mode ^ ": recovered image")
        (hash = reference))
    references;
  let sized =
    Workload.Populate.sized_spec (W.recover_spec ~seed) ~objects:W.recover_objects
  in
  time_pmem_create sized.Machine.platform;
  let recovery =
    List.fold_left (fun a n -> a +. (total n).Probe.wall) 0. recovery_layers
  in
  { traced_wall = !wall; comparable_wall = recovery; untraced; extra = [] }

(* ---- reduction to per-layer metrics --------------------------------- *)

(* Every timed call: metric stem, span name, unit scale. *)
let timed_calls =
  [
    ("nvm.pmem_create_ms", "nvm.pmem_create", 1e3);
    ("workload.machine_create_ms", "workload.machine_create", 1e3);
    ("workload.preload_ms", "workload.preload", 1e3);
    ("workload.execute_ms", "workload.execute", 1e3);
    ("workload.crash_execute_ms", "workload.crash_execute", 1e3);
    ("workload.recover_ms", "workload.recover", 1e3);
    ("workload.dump_verify_ms", "workload.dump_verify", 1e3);
    ("workload.populate_s", "workload.populate", 1.);
    ("nvm.pmem_recover_ms", "nvm.pmem_recover", 1e3);
    ("pheap.heap_attach_ms", "pheap.heap_attach", 1e3);
    ("atlas.recovery_run_ms", "atlas.recovery_run", 1e3);
    ("pheap.gc_ms", "pheap.gc", 1e3);
    ("pheap.audit_ms", "pheap.audit", 1e3);
  ]
  @ List.concat_map
      (fun layer ->
        List.map
          (fun leg -> (Printf.sprintf "%s.%s_ms" layer leg, layer ^ "." ^ leg, 1e3))
          [ "eager"; "incremental" ])
      recovery_layers
  @ [
    ("check.dl_check_ms", "check.dl_check", 1e3);
    ("obs.report_ms", "obs.report", 1e3);
    ("service.arrival_ms", "service.arrival", 1e3);
    ("service.serve_run_ms", "service.serve_run", 1e3);
  ]

let share_name stem =
  let base = String.sub stem 0 (String.rindex stem '_') in
  base ^ "_share_pct"

(* Standalone device creations stand in for the ones inside
   [Machine.create] (and inside [Serve.run]'s shards): their share is
   estimated as that many creations at the measured median. *)
let creations = function
  | "crash_campaign" | "table1_steady" -> List.length (calls "workload.machine_create")
  | "serve_crash" -> (W.serve_config ~seed:0).W.Serve.shards + 1
  | _ -> List.length (calls "workload.populate")

(* [(name, unit, value)] for every per-layer metric. *)
let metrics ~workload (r : result) =
  let wall = r.traced_wall in
  let per_call =
    List.concat_map
      (fun (stem, name, scale) ->
        let share =
          if name = "nvm.pmem_create" then
            float (creations workload) *. median_wall name
          else (total name).Probe.wall
        in
        [
          (stem, (if scale = 1. then "s" else "ms"), median_wall name *. scale);
          (share_name stem, "%", 100. *. share /. wall);
        ])
      timed_calls
  in
  let create_minflt = median_of (fun c -> float c.Probe.minflt) "nvm.pmem_create" in
  let exec = total "workload.execute" in
  let steps = float (max 1 !executed_steps) in
  let u = r.untraced.W.counters in
  let extra name = Option.value (List.assoc_opt name r.extra) ~default:0. in
  per_call
  @ [
      ("nvm.pmem_create_minflt", "count", create_minflt);
      ("workload.execute_ns_per_step", "ns", exec.Probe.wall *. 1e9 /. steps);
      ( "workload.execute_minor_words_per_step",
        "count",
        exec.Probe.minor_words /. steps );
      ("check.history_overhead_pct", "%", extra "check.history_overhead_pct");
      ("workload.crashed_frac", "ratio", extra "workload.crashed_frac");
      ("check.capped_frac", "ratio", extra "check.capped_frac");
      ("proc.user_s", "s", u.Probe.user);
      ("proc.sys_s", "s", u.Probe.sys);
      ("proc.minflt", "count", float u.Probe.minflt);
      ("gc.minor_mwords", "count", u.Probe.minor_words /. 1e6);
      ("gc.major_collections", "count", float u.Probe.major_collections);
      ("trace.traced_wall_s", "s", wall);
      ("trace.untraced_wall_s", "s", r.untraced.W.timed);
      ("trace.overhead_s", "s", r.comparable_wall -. r.untraced.W.timed);
    ]

let run ~workload t ~seed =
  let unit =
    match workload with
    | "crash_campaign" -> crash_campaign
    | "table1_steady" -> table1_steady
    | "serve_crash" -> serve_crash
    | _ -> recover_1m
  in
  let r = unit t ~seed in
  (metrics ~workload r, List.rev !mismatches)
