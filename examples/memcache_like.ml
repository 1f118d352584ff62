(* A persistent memcached-like string cache — the application class the
   paper's Atlas study targeted (memcached, OpenLDAP).

   Values are short strings packed into 8-word (64-byte) wide map
   values, so every SET is a genuine multi-store critical section: an
   interrupted SET would leave half-old/half-new bytes.  Under Atlas in
   TSP mode (log-only, no flushing) every SET is failure-atomic; after a
   crash the cache returns either the complete old or the complete new
   string, never a splice.

   Run with: dune exec examples/memcache_like.exe *)

module Heap = Pheap.Heap
module Rt = Atlas.Runtime
module Hashmap = Tsp_maps.Chained_hashmap
module Scheduler = Sched.Scheduler

let value_words = 8
let max_len = (value_words * 8) - 1 (* one byte holds the length *)

(* Strings <-> wide values: byte 0 of word 0 is the length. *)
let encode s =
  if String.length s > max_len then invalid_arg "value too long";
  let bytes = Bytes.make (value_words * 8) '\000' in
  Bytes.set bytes 0 (Char.chr (String.length s));
  Bytes.blit_string s 0 bytes 1 (String.length s);
  Array.init value_words (fun w -> Bytes.get_int64_le bytes (w * 8))

let decode values =
  let bytes = Bytes.create (value_words * 8) in
  Array.iteri (fun w v -> Bytes.set_int64_le bytes (w * 8) v) values;
  let len = Char.code (Bytes.get bytes 0) in
  Bytes.sub_string bytes 1 (min len max_len)

let hash_key s =
  (* Keys are strings too; fold them to the int key space. *)
  (Hashtbl.hash s * 2654435761) land max_int

let () =
  let pmem =
    Nvm.Pmem.create (Nvm.Config.with_region_size Nvm.Config.desktop (8 * 1024 * 1024))
  in
  let size = (Nvm.Pmem.config pmem).Nvm.Config.region_size in
  let log_base = size - (1024 * 1024) in
  let heap = Heap.create pmem ~base:0 ~size:log_base in
  let atlas =
    Rt.create ~mode:Atlas.Mode.Log_only ~heap ~log_base
      ~log_size:(1024 * 1024) ~num_threads:4 ()
  in
  let sched = Scheduler.create ~seed:3 () in
  let cache =
    Hashmap.create heap ~atlas ~sched ~n_buckets:1024 ~value_words ()
  in
  Nvm.Pmem.persist_all pmem;
  let flushes_after_setup = (Nvm.Pmem.stats pmem).Nvm.Stats.flushes in

  (* Four client threads SET overlapping keys with distinct, recognisable
     payloads; each payload is written in one atomic critical section. *)
  let payload tid i = Printf.sprintf "client-%d owns round %d entirely" tid i in
  for tid = 0 to 3 do
    ignore
      (Scheduler.spawn sched
         ~name:(Printf.sprintf "client-%d" tid)
         (fun () ->
           for i = 1 to 200 do
             let key = Printf.sprintf "session:%d" (i mod 40) in
             Hashmap.set_wide cache ~tid ~key:(hash_key key)
               ~values:(encode (payload tid i))
           done)
        : int)
  done;
  Nvm.Pmem.set_step_hook pmem (fun ~cost -> Scheduler.step sched ~cost);
  let outcome = Scheduler.run ~crash_at_step:60_000 sched in
  Nvm.Pmem.clear_step_hook pmem;
  (match outcome with
  | Scheduler.Crashed { at_step } ->
      Fmt.pr "crash injected at step %d, all four clients killed@." at_step
  | _ -> Fmt.pr "clients finished before the crash point@.");
  Fmt.pr "flushes issued by the clients: %d (TSP mode: none needed)@."
    ((Nvm.Pmem.stats pmem).Nvm.Stats.flushes - flushes_after_setup);

  (* Crash with TSP, recover, roll back interrupted SETs, verify. *)
  ignore
    (Tsp_core.Tsp.crash pmem ~hardware:Tsp_core.Hardware.nvdimm_server
       ~failure:Tsp_core.Failure_class.Power_outage
      : Tsp_core.Policy.verdict);
  Nvm.Pmem.recover pmem;
  let heap = Heap.attach pmem ~base:0 ~size:log_base in
  let report = Atlas.Recovery.run ~heap ~log_base () in
  ignore
    (Pheap.Heap_gc.collect_graceful heap
      : Pheap.Heap_gc.stats * Pheap.Heap_gc.quarantine);
  Fmt.pr "@.recovery: %a@.@." Atlas.Recovery.pp_report report;

  (* Every recovered value must be a COMPLETE payload from some client:
     a splice of two SETs would not parse back to a known payload. *)
  let ok = ref 0 and torn = ref 0 in
  Hashmap.fold_wide_plain heap ~root:(Heap.get_root heap)
    (fun _ values () ->
      let s = decode values in
      let well_formed =
        try Scanf.sscanf s "client-%d owns round %d entirely" (fun t i ->
            t >= 0 && t < 4 && i >= 1 && i <= 200)
        with Scanf.Scan_failure _ | End_of_file -> false
      in
      if well_formed then incr ok else incr torn)
    ();
  Fmt.pr "recovered entries: %d complete, %d torn@." !ok !torn;
  Fmt.pr
    "@.Every surviving value is one client's complete write: Atlas made \
     each 64-byte SET failure-atomic, and TSP made that free of flushes.@."
