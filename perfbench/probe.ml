(* Host-side measurement primitives: wall clock, process counters from
   /proc, GC counters, and the order statistics every metric is reported
   with.  Nothing here touches the simulation. *)

let now = Unix.gettimeofday

(* Minor page faults: field 10 of /proc/self/stat, counted after the
   parenthesised command name (which may hold spaces). *)
let minflt () =
  try
    let line = In_channel.with_open_text "/proc/self/stat" input_line in
    let i = String.rindex line ')' in
    let after_name = String.sub line (i + 2) (String.length line - i - 2) in
    let fields = String.split_on_char ' ' after_name in
    (* the fields after the name start at field 3 *)
    int_of_string (List.nth fields (10 - 3))
  with _ -> 0

(* Peak resident set of this process so far (VmHWM). *)
let peak_rss_mib () =
  let rec find ic =
    match In_channel.input_line ic with
    | None -> 0
    | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d" Fun.id
    | Some _ -> find ic
  in
  let kib = try In_channel.with_open_text "/proc/self/status" find with _ -> 0 in
  float_of_int kib /. 1024.

(* One reading of every host counter a span reports. *)
type reading = {
  wall : float;
  user : float;
  sys : float;
  minflt : int;
  minor_words : float;
  major_collections : int;
}

let read () =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  {
    wall = now ();
    user = t.Unix.tms_utime;
    sys = t.Unix.tms_stime;
    minflt = minflt ();
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
  }

let diff a b =
  {
    wall = b.wall -. a.wall;
    user = b.user -. a.user;
    sys = b.sys -. a.sys;
    minflt = b.minflt - a.minflt;
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
  }

let zero =
  {
    wall = 0.;
    user = 0.;
    sys = 0.;
    minflt = 0;
    minor_words = 0.;
    major_collections = 0;
  }

let add a b =
  {
    wall = a.wall +. b.wall;
    user = a.user +. b.user;
    sys = a.sys +. b.sys;
    minflt = a.minflt + b.minflt;
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
  }

(* [measure f] runs [f] and returns its result with the counter deltas. *)
let measure f =
  let a = read () in
  let r = f () in
  let b = read () in
  (r, diff a b)

(* Start every repetition from the same collector state: garbage a
   previous repetition left behind is collected and the heap compacted
   outside the timed region, so one repetition's garbage is not billed
   to the next. *)
let settle () = Gc.compact ()

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [isolated f] runs [f] in a forked child process and returns its
   result: every repetition starts from the same fresh process state, so
   no collector state, heap growth or fragmentation carries over from
   one repetition to the next.  Only valid while the program runs a
   single domain.  The child's peak resident set comes back with the
   result. *)
let isolated (f : unit -> 'a) : 'a * float =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let status =
        try
          settle ();
          let r = f () in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc (r, peak_rss_mib ()) [];
          close_out oc;
          0
        with e ->
          prerr_endline ("perfbench: repetition raised " ^ Printexc.to_string e);
          1
      in
      flush_all ();
      Unix._exit status
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try Some (Marshal.from_channel ic : 'a * float) with End_of_file -> None
      in
      close_in ic;
      let _, st = Unix.waitpid [] pid in
      (match (r, st) with
      | Some r, Unix.WEXITED 0 -> r
      | _ -> failwith "perfbench: a repetition's process failed")

(* A repetition loop: timed calls of [rep] until [seconds] of timed
   wall time have accumulated, at least [min_reps] and at most
   [max_reps] of them.  [rep i] returns its own
   timed seconds (work outside its timed region, such as per-repetition
   set-up, is not counted) plus whatever it measured. *)
let repeat ~seconds ~min_reps ~max_reps rep =
  let spent = ref 0. in
  let out = ref [] in
  let i = ref 0 in
  while !i < min_reps || (!spent < seconds && !i < max_reps) do
    let timed, r = rep !i in
    spent := !spent +. timed;
    out := r :: !out;
    incr i
  done;
  List.rev !out
