(* Shared scaffolding for the test suites. *)

module Pmem = Nvm.Pmem
module Config = Nvm.Config
module Heap = Pheap.Heap
module Scheduler = Sched.Scheduler
module Rng = Sched.Sim_rng

let small_pmem ?(journal = false) () = Pmem.create ~journal Config.test_small

let desktop_pmem ?(journal = false) ?(region_mib = 8) () =
  Pmem.create ~journal
    (Config.with_region_size Config.desktop (region_mib * 1024 * 1024))

let small_heap ?journal () =
  let pmem = small_pmem ?journal () in
  (pmem, Heap.create pmem ~base:0 ~size:(Config.test_small.Config.region_size))

let desktop_heap ?journal ?region_mib () =
  let pmem = desktop_pmem ?journal ?region_mib () in
  let size = (Pmem.config pmem).Config.region_size in
  (pmem, Heap.create pmem ~base:0 ~size)

(* Run [threads] bodies under a scheduler with the pmem step hook wired,
   as the real runner does.  Returns the scheduler outcome. *)
let run_threads ?seed ?crash_at_step pmem bodies =
  let sched = Scheduler.create ?seed () in
  List.iteri
    (fun i body ->
      ignore (Scheduler.spawn sched ~name:(Printf.sprintf "t%d" i) body : int))
    bodies;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () -> Scheduler.run ?crash_at_step sched)

(* Same, but also hands each body the scheduler (for mutexes). *)
let run_threads_s ?seed ?crash_at_step pmem bodies =
  let sched = Scheduler.create ?seed () in
  List.iteri
    (fun i body ->
      ignore
        (Scheduler.spawn sched
           ~name:(Printf.sprintf "t%d" i)
           (fun () -> body sched)
          : int))
    bodies;
  Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  Fun.protect
    ~finally:(fun () -> Pmem.clear_step_hook pmem)
    (fun () -> Scheduler.run ?crash_at_step sched)

(* The eager recovery GC on a heap the test expects to be healthy:
   nothing may be unscannable or quarantined. *)
let collect_clean heap =
  let stats, q = Pheap.Heap_gc.collect_graceful heap in
  Alcotest.(check (list string)) "empty GC quarantine" [] q.Pheap.Heap_gc.reasons;
  Alcotest.(check int) "no unscannable objects" 0 q.Pheap.Heap_gc.unscannable;
  Alcotest.(check int) "no quarantined words" 0 q.Pheap.Heap_gc.quarantined_words;
  stats

let check_raises_invalid name f =
  Alcotest.check_raises name (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let check_raises_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Heap.Corrupt" name
  | exception Heap.Corrupt _ -> ()

(* Walk every heap block of an image the test expects to be intact;
   an unparseable header fails the test. *)
let walk_blocks heap f =
  match Heap.fold_blocks_checked heap f with
  | Ok () -> ()
  | Error (at, msg) -> Alcotest.failf "heap block at %d: %s" at msg

let int64 = Alcotest.int64

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
