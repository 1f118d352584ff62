(* Recovery at scale (E22): determinism of the parallel mark across job
   counts, crash-idempotence of incremental recovery (no stores before
   [Incremental.finish]), equivalence of on-demand and eager recovery,
   and an allocation-rate guard on the streamed mark loop. *)

module RS = Workload.Recovery_scaling
module Machine = Workload.Machine
module Populate = Workload.Populate
module Heap = Pheap.Heap
module Heap_gc = Pheap.Heap_gc

let variant = Machine.Mutex_map Atlas.Mode.Log_only

let image m =
  RS.image_hash m.Machine.pmem ~lo:0 ~hi:(Machine.log_base m.Machine.spec)

(* A populated machine, crashed mid-workload — the state every recovery
   mode starts from.  Pure function of (objects, seed): twins built with
   the same arguments carry byte-identical images. *)
let crashed ~objects ~seed =
  let spec = RS.default_spec ~variant ~seed in
  let m = Populate.build spec ~objects ~seed in
  ignore (Machine.crash_execute m : Tsp_core.Crash_executor.execution);
  m

(* The parallel scan must be a pure refactoring of the sequential one:
   same outage bill, same stats, same phase split, same heap image for
   any job count (the merge is in chunk order, not completion order). *)
let test_jobs_identity () =
  let cell jobs =
    RS.run_cell ~variant ~objects:3_000 ~mode:(Machine.Parallel_gc jobs)
      ~seed:7 ()
  in
  let c1 = cell 1 and c2 = cell 2 and c4 = cell 4 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (RS.cells_match c1 c2);
  Alcotest.(check bool) "jobs 1 = jobs 4" true (RS.cells_match c1 c4);
  let eager = RS.run_cell ~variant ~objects:3_000 ~mode:Machine.Eager ~seed:7 () in
  Alcotest.(check bool)
    "parallel heap image = eager heap image" true
    (eager.RS.image_hash = c2.RS.image_hash);
  Alcotest.(check bool)
    "audits pass" true
    (eager.RS.heap_audit_ok && c1.RS.heap_audit_ok && c2.RS.heap_audit_ok)

(* Crash during incremental recovery: planning, [advance], [on_demand]
   and [touch] issue no stores, so a collector that dies before [finish]
   leaves the image exactly as recovery left it — and a restarted
   collection lands on the same final image and stats as one that was
   never interrupted. *)
let test_incremental_crash_idempotent () =
  let a = crashed ~objects:2_500 ~seed:13 in
  let b = crashed ~objects:2_500 ~seed:13 in
  let ra = Machine.recover ~mode:Machine.Incremental_gc a in
  ignore (Machine.recover ~mode:Machine.Incremental_gc b : Machine.recovery);
  let inc_a = Option.get ra.Machine.gc_pending in
  let heap_a = Option.get ra.Machine.heap in
  ignore (Heap_gc.Incremental.advance inc_a ~budget:2_000 : int);
  ignore (Heap_gc.Incremental.on_demand inc_a : int);
  let n = ref 0 in
  Helpers.walk_blocks heap_a (fun ~addr ~kind:_ ~words:_ ->
      if !n < 16 then (
        incr n;
        ignore (Heap_gc.Incremental.touch inc_a ~addr : int)));
  Alcotest.(check bool)
    "partial collection issued no stores" true
    (image a = image b);
  (* The collector dies here (inc_a is abandoned, finish never runs); a
     restarted recovery plans the collection afresh on the same image. *)
  let inc_a' = Heap_gc.Incremental.start heap_a in
  let stats_a, quar_a = Heap_gc.Incremental.finish inc_a' in
  let stats_b, quar_b =
    match Machine.finish_background_gc b with
    | Some r -> r
    | None -> Alcotest.fail "machine b lost its pending collection"
  in
  Alcotest.(check bool) "same final image" true (image a = image b);
  Alcotest.(check bool) "same gc stats" true (stats_a = stats_b);
  Alcotest.(check bool) "same quarantine" true (quar_a = quar_b)

(* Touching every object on demand before the background collector gets
   to it must recover exactly what eager recovery recovers: same map
   contents, same heap image. *)
let test_on_demand_full_touch () =
  let a = crashed ~objects:2_000 ~seed:23 in
  let b = crashed ~objects:2_000 ~seed:23 in
  ignore (Machine.recover ~mode:Machine.Eager a : Machine.recovery);
  let rb = Machine.recover ~mode:Machine.Incremental_gc b in
  let inc = Option.get rb.Machine.gc_pending in
  let heap_b = Option.get rb.Machine.heap in
  let touched = ref 0 in
  Helpers.walk_blocks heap_b (fun ~addr ~kind:_ ~words:_ ->
      if Heap_gc.Incremental.touch inc ~addr > 0 then incr touched);
  Alcotest.(check bool) "some objects recovered on demand" true (!touched > 0);
  ignore
    (Machine.finish_background_gc b
      : (Heap_gc.stats * Heap_gc.quarantine) option);
  Alcotest.(check bool) "same heap image" true (image a = image b);
  let dump m = List.sort compare (Machine.dump m) in
  Alcotest.(check (list (pair int int64)))
    "same map contents" (dump a) (dump b)

(* qcheck: for any (seed, size, on-demand sample), incremental recovery
   finishes on the eager image with a clean audit and the same verdict. *)
let prop_on_demand_equals_eager =
  QCheck2.Test.make ~count:8 ~name:"incremental recovery = eager recovery"
    QCheck2.Gen.(
      triple (int_range 1 500) (int_range 200 1_500) (int_range 0 40))
    (fun (seed, objects, touches) ->
      let eager = RS.run_cell ~variant ~objects ~mode:Machine.Eager ~seed () in
      let inc =
        RS.run_cell ~variant ~objects ~mode:Machine.Incremental_gc ~seed
          ~touches ()
      in
      eager.RS.image_hash = inc.RS.image_hash
      && eager.RS.verdict = inc.RS.verdict
      && eager.RS.heap_audit_ok && inc.RS.heap_audit_ok
      && inc.RS.outage_cycles < eager.RS.outage_cycles)

(* Allocation guard for the streamed mark loop: the Intset mark set and
   int-indexed frontier chunks keep the per-object minor-heap traffic
   bounded — a regression to boxed visited-sets or per-object closures
   shows up as words-per-object here long before it shows up in wall
   clock. *)
let test_mark_allocation_guard () =
  let objects = 20_000 in
  let m = crashed ~objects ~seed:31 in
  let r = Machine.recover ~mode:Machine.Incremental_gc m in
  let heap = Option.get r.Machine.heap in
  ignore
    (Machine.finish_background_gc m
      : (Heap_gc.stats * Heap_gc.quarantine) option);
  (* Steady-state measurement on the recovered heap: everything the
     collector needs is already faulted in. *)
  ignore (Heap_gc.collect_streamed heap : Heap_gc.stats * Heap_gc.quarantine);
  let w0 = Gc.minor_words () in
  let stats, _ = Heap_gc.collect_streamed heap in
  let dw = Gc.minor_words () -. w0 in
  let per_object = dw /. float_of_int (max 1 stats.Heap_gc.live_objects) in
  if per_object > 48. then
    Alcotest.failf
      "streamed mark allocates %.1f minor words per live object (%d live, \
       %.0f words total) — the mark loop is boxing again"
      per_object stats.Heap_gc.live_objects dw

let suite =
  ( "recovery_scaling",
    [
      Alcotest.test_case "parallel scan identical across job counts" `Quick
        test_jobs_identity;
      Alcotest.test_case "crash during incremental recovery is idempotent"
        `Quick test_incremental_crash_idempotent;
      Alcotest.test_case "on-demand touches recover the eager image" `Quick
        test_on_demand_full_touch;
      QCheck_alcotest.to_alcotest prop_on_demand_equals_eager;
      Alcotest.test_case "streamed mark minor-allocation guard" `Slow
        test_mark_allocation_guard;
    ] )
