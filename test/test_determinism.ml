(* End-to-end determinism guarantees introduced by the perf overhaul:
   the scheduler's uncontended fast path and the multicore sweep
   execution must both be invisible in every simulated observable. *)

open Helpers
module Stats = Nvm.Stats
module Mutex = Scheduler.Mutex
module Sweeps = Workload.Sweeps
module Table1 = Workload.Table1

(* A small mixed workload: contended phase (two threads through a mutex)
   followed by a long uncontended tail, with cost jitter so the RNG
   stream matters.  Returns every observable of the run. *)
let mini_run ~slice =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched =
    Scheduler.create ~seed:7 ~cost_jitter:3 ~deterministic_slice:slice ()
  in
  let m = Mutex.create sched in
  let body tid () =
    for i = 0 to 399 do
      Mutex.lock m;
      let addr = (i * 64) land 0xFFFF in
      Pmem.store_int pmem addr ((tid * 100_000) + i);
      ignore (Pmem.load_int pmem addr : int);
      if i land 63 = 0 then begin
        Pmem.flush pmem addr;
        Pmem.fence pmem
      end;
      Mutex.unlock m
    done;
    (* Uncontended tail for thread 0 only: exercises the fast path. *)
    if tid = 0 then
      for i = 0 to 1_999 do
        Pmem.store_int pmem ((i * 8) land 0xFFFF) i
      done
  in
  ignore (Scheduler.spawn sched ~name:"t0" (body 0) : int);
  ignore (Scheduler.spawn sched ~name:"t1" (body 1) : int);
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Pmem.clear_step_hook pmem;
  ( Pmem.stats pmem,
    Pmem.durable_snapshot pmem,
    Scheduler.elapsed_cycles sched,
    Scheduler.total_steps sched )

let test_fast_path_invisible () =
  let stats_on, durable_on, cycles_on, steps_on =
    mini_run ~slice:Scheduler.default_slice
  in
  let stats_off, durable_off, cycles_off, steps_off = mini_run ~slice:0 in
  Alcotest.(check int) "elapsed cycles" cycles_off cycles_on;
  Alcotest.(check int) "total steps" steps_off steps_on;
  Alcotest.(check bool)
    "all device counters identical" true
    (stats_on = stats_off);
  Alcotest.(check int)
    "total cycles identical"
    (Stats.total_cycles stats_off)
    (Stats.total_cycles stats_on);
  Alcotest.(check bool)
    "final durable bytes identical" true
    (String.equal durable_on durable_off)

let test_fast_path_invisible_under_crash () =
  (* The crash window must open at the same step either way, leaving the
     same durable image. *)
  let crashed ~slice =
    let pmem = desktop_pmem ~region_mib:1 () in
    let sched = Scheduler.create ~seed:11 ~deterministic_slice:slice () in
    ignore
      (Scheduler.spawn sched (fun () ->
           for i = 0 to 9_999 do
             Pmem.store_int pmem ((i * 8) land 0xFFFF) i
           done)
        : int);
    Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
    let outcome = Scheduler.run ~crash_at_step:1234 sched in
    Pmem.clear_step_hook pmem;
    (match outcome with
    | Scheduler.Crashed { at_step } ->
        Alcotest.(check int) "crash step" 1234 at_step
    | _ -> Alcotest.fail "expected a crash");
    Pmem.crash pmem Pmem.Rescue;
    Pmem.durable_snapshot pmem
  in
  Alcotest.(check bool)
    "post-crash durable image identical" true
    (String.equal (crashed ~slice:Scheduler.default_slice) (crashed ~slice:0))

(* Tie-heavy multi-thread runs for the inline re-pick: [threads] threads
   issue identical load/store streams (with [cost_jitter] 0 their clocks
   tie constantly, so the pick's reservoir draws run on nearly every
   switch), optionally through one contended mutex, whose hand-offs
   invalidate the re-pick horizon.  Returns every observable, including
   the per-op interleaving as the executing thread id of each device op
   in execution order. *)
let tie_run ?crash_at_step ~seed ~threads ~jitter ~contended ~slice () =
  let pmem = desktop_pmem ~region_mib:1 () in
  let sched =
    Scheduler.create ~seed ~cost_jitter:jitter ~deterministic_slice:slice ()
  in
  let m = Mutex.create sched in
  let order = Buffer.create 4096 in
  let op f =
    f ();
    Buffer.add_char order (Char.chr (Char.code 'a' + Scheduler.self sched))
  in
  let body tid () =
    for i = 0 to 149 do
      let own = (tid * 4096) + ((i * 64) land 0xFFF) in
      op (fun () -> Pmem.store_int pmem own i);
      if contended && i land 3 = 0 then begin
        Mutex.lock m;
        op (fun () -> Pmem.store_int pmem 0x8000 i);
        op (fun () -> ignore (Pmem.load_int pmem 0x8000 : int));
        Mutex.unlock m
      end;
      op (fun () -> ignore (Pmem.load_int pmem own : int));
      if i land 15 = 0 then
        op (fun () ->
            Pmem.flush pmem own;
            Pmem.fence pmem)
    done
  in
  for tid = 0 to threads - 1 do
    ignore (Scheduler.spawn sched (body tid) : int)
  done;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ?crash_at_step sched in
  Pmem.clear_step_hook pmem;
  (match (outcome, crash_at_step) with
  | Scheduler.Completed, None -> ()
  | Scheduler.Crashed { at_step }, Some c ->
      Alcotest.(check int) "crash step" c at_step;
      Pmem.crash pmem Pmem.Rescue
  | _ -> Alcotest.fail "unexpected scheduler outcome");
  ( Buffer.contents order,
    List.init threads (Scheduler.thread_cycles sched),
    Scheduler.total_steps sched,
    Pmem.stats pmem,
    Pmem.durable_snapshot pmem )

let check_tie_run ?crash_at_step ~threads ~jitter ~contended () =
  let label =
    Printf.sprintf "%d threads, jitter %d, %s%s" threads jitter
      (if contended then "contended" else "uncontended")
      (match crash_at_step with
      | Some c -> Printf.sprintf ", crash at %d" c
      | None -> "")
  in
  let run slice =
    tie_run ?crash_at_step ~seed:5 ~threads ~jitter ~contended ~slice ()
  in
  let order_ref, cycles_ref, steps_ref, stats_ref, durable_ref = run 0 in
  let order, cycles, steps, stats, durable = run Scheduler.default_slice in
  Alcotest.(check string) (label ^ ": interleaving") order_ref order;
  Alcotest.(check (list int)) (label ^ ": thread cycles") cycles_ref cycles;
  Alcotest.(check int) (label ^ ": total steps") steps_ref steps;
  Alcotest.(check bool) (label ^ ": device stats") true (stats = stats_ref);
  Alcotest.(check bool)
    (label ^ ": durable image") true
    (String.equal durable_ref durable)

let test_repick_matches_reference () =
  List.iter
    (fun threads ->
      List.iter
        (fun jitter ->
          List.iter
            (fun contended -> check_tie_run ~threads ~jitter ~contended ())
            [ false; true ])
        [ 0; 3 ])
    [ 4; 8 ];
  check_tie_run ~crash_at_step:800 ~threads:4 ~jitter:0 ~contended:true ();
  (* With no jitter the only randomness is the pick's tie draws: if two
     seeds interleave alike, the runs above never exercised them. *)
  let order seed =
    let o, _, _, _, _ =
      tie_run ~seed ~threads:4 ~jitter:0 ~contended:true
        ~slice:Scheduler.default_slice ()
    in
    o
  in
  Alcotest.(check bool)
    "jitter 0: tie draws change the interleaving across seeds" false
    (String.equal (order 5) (order 6))

let test_sweep_jobs_invariant () =
  let sweep jobs =
    Sweeps.flush_latency ~iterations:40 ~latencies:[ 100; 400 ] ~jobs ()
  in
  let s1 = sweep 1 and s4 = sweep 4 in
  Alcotest.(check bool) "flush-latency sweep: jobs 1 = jobs 4" true (s1 = s4)

let test_table1_jobs_invariant () =
  let row jobs =
    Table1.run_row ~threads:2 ~iterations:120 ~repeats:2 ~jobs
      Nvm.Config.desktop Table1.paper_desktop
  in
  let extract (r : Table1.row) =
    List.map
      (fun (c : Table1.cell) ->
        ( c.Table1.measured_miters,
          c.Table1.spread_miters,
          c.Table1.result.Workload.Runner.elapsed_cycles ))
      r.Table1.cells
  in
  Alcotest.(check bool)
    "table1 row: jobs 1 = jobs 4" true
    (extract (row 1) = extract (row 4))

let test_fault_campaign_jobs_invariant () =
  (* An exhaustive crash-point campaign must render byte-identically no
     matter how the runs are fanned out — per fault model, including the
     RNG-driven adversarial ones (their randomness is seed-derived per
     run, never drawn from a shared stream during the fan-out). *)
  let module FI = Workload.Fault_injector in
  let module FM = Nvm.Fault_model in
  let base =
    let platform =
      { Nvm.Config.desktop with Nvm.Config.cache_lines = 512 }
    in
    {
      (Workload.Runner.calibrated_config platform) with
      Workload.Runner.variant = Workload.Runner.Mutex_map Atlas.Mode.Log_only;
      workload = Workload.Runner.Counters { h_keys = 256; preload = true };
      threads = 4;
      iterations = 60;
      n_buckets = 512;
      log_mib = 1;
    }
  in
  List.iter
    (fun fm ->
      let spec =
        {
          (FI.default_spec base) with
          FI.fault_models = [ Some fm ];
          exhaustive = Some { FI.from_step = 2_000; window = 600; stride = 150 };
        }
      in
      let render jobs = Fmt.str "%a" FI.pp_summary (FI.run ~jobs spec) in
      Alcotest.(check bool)
        (FM.to_string fm ^ ": jobs 1 = jobs 4")
        true
        (String.equal (render 1) (render 4)))
    FM.reference

let suite =
  ( "determinism",
    [
      case "scheduler fast path is observationally invisible"
        test_fast_path_invisible;
      case "fast path invisible across a crash" test_fast_path_invisible_under_crash;
      case "inline re-pick matches suspend-per-step on tie-heavy runs"
        test_repick_matches_reference;
      case "sweep results independent of --jobs" test_sweep_jobs_invariant;
      case "table1 results independent of --jobs" test_table1_jobs_invariant;
      slow_case "exhaustive fault campaigns independent of --jobs"
        test_fault_campaign_jobs_invariant;
    ] )
