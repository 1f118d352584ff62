(* The four benchmark workloads, driven through the libraries' public
   functions with one domain ([jobs = 1]).  Every workload is a
   closed-loop batch: a repetition runs one fixed unit of work, checks
   its outputs, and reports its set-up and timed host seconds.  Inputs
   are pure functions of the seed; simulated-cycle values are never
   compared against constants (the BENCH chain guards those). *)

module Runner = Workload.Runner
module Machine = Workload.Machine
module FI = Workload.Fault_injector
module CC = Workload.Check_campaign
module Serve = Service.Serve

let jobs = 1

(* Outcome accounting: operations attempted, operations failed, and a
   one-line reason per failure class seen. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable why : string list;
}

let tally () = { attempted = 0; failed = 0; why = [] }

let note t what = if not (List.mem what t.why) then t.why <- what :: t.why

let count t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    note t what
  end

let merge into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  List.iter (note into) (List.rev t.why)

(* One timed repetition: its set-up samples and [timed] host seconds,
   the [work] units completed in the timed region, and the timed
   region's counters. *)
type rep = {
  setups : float list;
  timed : float;
  work : float;
  counters : Probe.reading;
}

let rep ~setups (c : Probe.reading) work =
  { setups; timed = c.Probe.wall; work; counters = c }

(* ---- crash_campaign ------------------------------------------------ *)

(* The --smoke-base shape of [tsp faults]: 256 counter keys, 4 threads
   x 200 iterations, a 32 KiB cache (so crash images mix old and new
   lines) and a 1 MiB undo log. *)
let smoke_platform = { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 }

let crash_base ~variant ~seed =
  {
    (Runner.calibrated_config smoke_platform) with
    Runner.variant;
    workload = Runner.Counters { h_keys = 256; preload = true };
    iterations = 200;
    threads = 4;
    n_buckets = 512;
    log_mib = 1;
    seed;
  }

let log_only = Machine.Mutex_map Atlas.Mode.Log_only
let crash_variants = [ log_only; Machine.Nvtraverse_map; Machine.Delayfree_map ]
let fault_models = None :: List.map Option.some Nvm.Fault_model.reference

(* Crash points per window.  Windows sit at fixed fractions of the
   variant's crash-free step count at this seed, so every point crashes
   whatever the seed, and every repetition does the same work. *)
let crash_points = 2

let window_of ~total_steps =
  let stride = max 1 (total_steps / (crash_points + 1)) in
  { FI.from_step = stride; window = crash_points * stride; stride }

(* Set-up of one repetition: a crash-free reference run per variant,
   whose step count places that variant's window.  It is checked like
   any run. *)
let reference_steps t ~seed =
  List.map
    (fun variant ->
      let r = Runner.run (crash_base ~variant ~seed) in
      count t
        ~ok:(r.Runner.outcome = Runner.Completed && Runner.consistent r)
        "crash-free reference run failed its invariants";
      (variant, r.Runner.total_steps))
    crash_variants

let fi_spec ~variant ~seed ~total_steps =
  {
    (FI.default_spec (crash_base ~variant ~seed)) with
    FI.campaign_seed = seed;
    fault_models;
    exhaustive = Some (window_of ~total_steps);
    run_seed = Some seed;
    repro_tag = "--smoke-base";
  }

let dl_spec ?mutate ~seed ~total_steps () =
  let w = window_of ~total_steps in
  {
    (CC.default_spec (crash_base ~variant:log_only ~seed)) with
    CC.from_step = w.FI.from_step;
    window = w.FI.window;
    stride = w.FI.stride;
    mutate;
    mutate_label = (if Option.is_some mutate then "non-durable" else "");
  }

(* Failure accounting of a fault campaign: a run fails when it broke
   its fault model's promise in a way the configuration does not
   explain, or when recovery raised. *)
let account_faults t (s : FI.summary) =
  List.iter
    (fun (o : FI.run_outcome) ->
      count t
        ~ok:(o.FI.graceful && not (o.FI.violation && not o.FI.expected))
        "unexpected fault-campaign violation")
    s.FI.outcomes

let account_dl t (s : CC.summary) =
  List.iter
    (fun (p : CC.point) ->
      count t ~ok:(Check.Dl.is_explained p.CC.dl) "DL-flagged crash point")
    s.CC.points

(* The reports a campaign renders: text ledger and results JSON.  Returns
   their total size; an empty report counts as a failure. *)
let render_campaigns fis cc =
  let render pp to_json s =
    let j = Obs.Json.create () in
    to_json j s;
    String.length (Fmt.str "%a" pp s) + String.length (Obs.Json.contents j)
  in
  List.fold_left
    (fun a s -> a + render FI.pp_summary FI.to_json s)
    (render CC.pp_summary CC.to_json cc)
    fis

(* The timed part of a crash-campaign repetition: one exhaustive window
   per variant under every fault model, one strict-DL window, and the
   reports a campaign renders. *)
let crash_campaign_body t ~seed ~steps =
  let fis =
    List.map
      (fun (variant, total_steps) ->
        FI.run ~jobs (fi_spec ~variant ~seed ~total_steps))
      steps
  in
  let cc = CC.run ~jobs (dl_spec ~seed ~total_steps:(List.assoc log_only steps) ()) in
  if render_campaigns fis cc = 0 then count t ~ok:false "empty campaign report";
  List.iter (account_faults t) fis;
  account_dl t cc;
  (fis, cc)

let crash_runs fis (cc : CC.summary) =
  List.fold_left (fun a s -> a + s.FI.total) cc.CC.total fis

(* A repetition, with the campaign summaries it produced. *)
let crash_campaign_run t ~seed =
  let steps, setup = Probe.measure (fun () -> reference_steps t ~seed) in
  let (fis, cc), c =
    Probe.measure (fun () -> crash_campaign_body t ~seed ~steps)
  in
  (rep ~setups:[ setup.Probe.wall ] c (float (crash_runs fis cc)), steps, fis, cc)

let crash_campaign_rep t ~seed =
  let r, _, _, _ = crash_campaign_run t ~seed in
  r

(* ---- table1_steady ------------------------------------------------- *)

let table1_variants =
  [
    log_only;
    Machine.Mutex_map Atlas.Mode.Log_flush;
    Machine.Nonblocking_map;
    Machine.Nvtraverse_map;
  ]

(* Enough iterations that the one region create per run stays a few
   percent of it. *)
let table1_iterations = 3000

let table1_config ~variant ~seed ~iterations =
  {
    (Runner.calibrated_config Nvm.Config.desktop) with
    Runner.variant;
    seed;
    iterations;
  }

let check_steady t (r : Runner.result) =
  count t
    ~ok:
      (r.Runner.outcome = Runner.Completed
      && r.Runner.invariants.Workload.Invariant.ok)
    "deadlock or invariant failure"

(* Set-up of one repetition: bring each variant's machine up (device,
   map, preload of every counter key, persist, dump, invariants) with a
   zero-iteration run — the fixed part of every timed run, which also
   grows the collector's heap to working size before the timed runs. *)
let table1_run t ~seed =
  let (), setup =
    Probe.measure (fun () ->
        List.iter
          (fun variant ->
            check_steady t (Runner.run (table1_config ~variant ~seed ~iterations:0)))
          table1_variants)
  in
  let results, c =
    Probe.measure (fun () ->
        List.map
          (fun variant ->
            Runner.run
              (table1_config ~variant ~seed ~iterations:table1_iterations))
          table1_variants)
  in
  List.iter (check_steady t) results;
  let ops = List.fold_left (fun a r -> a + Runner.completed_ops r) 0 results in
  (rep ~setups:[ setup.Probe.wall ] c (float ops), results)

let table1_rep t ~seed = fst (table1_run t ~seed)

(* ---- serve_crash --------------------------------------------------- *)

let serve_config ~seed =
  {
    Serve.default_config with
    Serve.seed;
    shards = 8;
    keys = 65_536;
    requests = 400_000;
    rate_per_mcycle = 400.;
    theta = 0.99;
    preset = Workload.Ycsb.B;
    crash_shard = Some 1;
    recovery = Machine.Incremental_gc;
  }

(* Set-up: the request stream and its routing, generated independently
   of [Serve.run] so the per-shard request counts can be checked. *)
let routed_counts (cfg : Serve.config) =
  let s =
    Service.Arrival.generate ~seed:cfg.Serve.seed
      ~rate_per_mcycle:cfg.Serve.rate_per_mcycle ~theta:cfg.Serve.theta
      ~keys:cfg.Serve.keys ~preset:cfg.Serve.preset ~requests:cfg.Serve.requests
  in
  let counts = Array.make cfg.Serve.shards 0 in
  Array.iter
    (fun rank ->
      let key = Workload.Key_space.h_key rank in
      let sh = Service.Arrival.route ~shards:cfg.Serve.shards key in
      counts.(sh) <- counts.(sh) + 1)
    s.Service.Arrival.ranks;
  counts

let render_serve r =
  let j = Obs.Json.create () in
  Serve.to_json j r;
  String.length (Serve.render r) + String.length (Obs.Json.contents j)

(* Every request must be served; the victim must come back clean with
   an explained strict-DL verdict; survivors must not notice. *)
let check_serve t (cfg : Serve.config) ~routed (r : Serve.report) =
  Array.iter
    (function
      | Serve.Served -> count t ~ok:true ""
      | Serve.Shed -> count t ~ok:false "request shed"
      | Serve.Timed_out -> count t ~ok:false "request timed out"
      | Serve.Pending -> count t ~ok:false "request never resolved")
    r.Serve.fates;
  Array.iter
    (fun (s : Serve.shard_report) ->
      count t
        ~ok:(s.Serve.requests = routed.(s.Serve.shard))
        "shard request count differs from routing";
      let victim = cfg.Serve.crash_shard = Some s.Serve.shard in
      count t
        ~ok:(s.Serve.outcome = if victim then "crashed+recovered" else "ok")
        "unexpected shard outcome";
      match s.Serve.recovery with
      | None -> if victim then count t ~ok:false "victim has no recovery report"
      | Some rr ->
          count t
            ~ok:
              (rr.Serve.recovery_verdict = Atlas.Recovery.Clean
              && rr.Serve.recovery_errors = [])
            "victim recovery not clean";
          count t
            ~ok:(Option.fold ~none:false ~some:Check.Dl.is_explained rr.Serve.dl)
            "victim DL violation")
    r.Serve.shards

let resolved (r : Serve.report) =
  Array.fold_left
    (fun a f -> if f = Serve.Pending then a else a + 1)
    0 r.Serve.fates

let serve_rep t ~seed =
  let cfg = serve_config ~seed in
  let routed, setup = Probe.measure (fun () -> routed_counts cfg) in
  let (r, bytes), c =
    Probe.measure (fun () ->
        let r = Serve.run ~jobs cfg in
        (r, render_serve r))
  in
  if bytes = 0 then count t ~ok:false "empty serve report";
  check_serve t cfg ~routed r;
  rep ~setups:[ setup.Probe.wall ] c (float (resolved r))

(* ---- recover_1m ---------------------------------------------------- *)

let recover_objects = 1_000_000

let recover_spec ~seed =
  Workload.Recovery_scaling.default_spec ~variant:log_only ~seed

let image_of (m : Machine.t) =
  Workload.Recovery_scaling.image_hash m.Machine.pmem ~lo:0
    ~hi:(Machine.log_base m.Machine.spec)

(* One leg: populate a fresh heap (set-up), crash it, then time the
   recovery through the finished collection.  Settling the collector
   after population keeps the peak resident set independent of when the
   population's garbage happens to be collected. *)
let recover_leg t ~seed ~mode =
  let m, pop =
    Probe.measure (fun () ->
        Workload.Populate.build (recover_spec ~seed) ~objects:recover_objects ~seed)
  in
  Probe.settle ();
  ignore (Machine.crash_execute m : Tsp_core.Crash_executor.execution);
  let r, c =
    Probe.measure (fun () ->
        let r = Machine.recover ~mode m in
        ignore
          (Machine.finish_background_gc m
            : (Pheap.Heap_gc.stats * Pheap.Heap_gc.quarantine) option);
        r)
  in
  count t
    ~ok:
      (r.Machine.heap_audit_ok
      && r.Machine.recovery_verdict = Atlas.Recovery.Clean
      && r.Machine.recovery_errors = [])
    "recovery audit failed";
  (pop.Probe.wall, c, image_of m)

(* A repetition, with both legs' recovered-image hashes. *)
let recover_run t ~seed =
  let pop_e, ce, he = recover_leg t ~seed ~mode:Machine.Eager in
  Probe.settle ();
  let pop_i, ci, hi = recover_leg t ~seed ~mode:Machine.Incremental_gc in
  count t ~ok:(he = hi) "eager and incremental recovered images differ";
  ( rep ~setups:[ pop_e; pop_i ] (Probe.add ce ci) (float (2 * recover_objects)),
    [ (Machine.Eager, he); (Machine.Incremental_gc, hi) ] )

let recover_rep t ~seed = fst (recover_run t ~seed)
