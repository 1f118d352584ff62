(* perfbench: host-time benchmark of the TSP simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--revision R]

   --trace 0 runs the workload's closed loop for S seconds of timed
   work and reports its end-to-end metrics; --trace 1 runs one traced
   unit of the same work and reports the per-layer split.  The last
   line of standard output is the JSON result; the line before it is
   the run context. *)

module W = Perfbench.Workloads
module P = Perfbench.Probe
module T = Perfbench.Traced

let workloads = [ "crash_campaign"; "table1_steady"; "serve_crash"; "recover_1m" ]

(* Each workload's repetition and the fewest repetitions a run takes.
   Past the floor a run stops at --seconds of timed work, so a slow host
   lengthens it only through the floor.  The short serve repetitions
   swing most and get the highest floor. *)
let policy = function
  | "crash_campaign" -> (W.crash_campaign_rep, 3)
  | "table1_steady" -> (W.table1_rep, 2)
  | "serve_crash" -> (W.serve_rep, 6)
  | _ -> (W.recover_rep, 2)

let loadavg_1m () =
  try
    let ic = open_in "/proc/loadavg" in
    let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    float_of_string (List.hd (String.split_on_char ' ' l))
  with _ -> nan

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let print_rep i (r : W.rep) rss =
  let c = r.W.counters in
  Printf.printf
    "rep %d: setup %s s, timed %.3f s, %.0f units, user %.2f s, sys %.2f s, \
     minflt %d, major GCs %d, peak RSS %.1f MiB\n%!"
    i
    (String.concat "+" (List.map (Printf.sprintf "%.3f") r.W.setups))
    r.W.timed r.W.work c.P.user c.P.sys c.P.minflt c.P.major_collections rss

(* Every repetition runs in a fresh process (see [Probe.isolated]); its
   operation tally and peak resident set come back with it. *)
let end_to_end ~workload ~seed ~seconds (t : W.tally) =
  let rep, min_reps = policy workload in
  let peak = ref 0. in
  let reps =
    P.repeat ~seconds ~min_reps ~max_reps:1000 (fun i ->
        let (r, rt), rss =
          P.isolated (fun () ->
              let rt = W.tally () in
              (rep rt ~seed, rt))
        in
        W.merge t rt;
        peak := Float.max !peak rss;
        print_rep i r rss;
        (r.W.timed, r))
  in
  ( List.length reps,
    [
      ("setup_s", "s", P.median (List.concat_map (fun r -> r.W.setups) reps));
      ("peak_rss_mib", "MiB", !peak);
      ( "work_per_host_s",
        "1/s",
        P.median (List.map (fun r -> r.W.work /. r.W.timed) reps) );
    ] )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let revision = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer split");
      ("--revision", Arg.Set_string revision, " source revision to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let load = loadavg_1m () in
  let t = W.tally () in
  let t0 = P.now () in
  let reps, metrics, mismatches =
    if !trace = 0 then
      let reps, m = end_to_end ~workload:!workload ~seed:!seed ~seconds:!seconds t in
      (reps, m, [])
    else
      let m, mismatches = T.run ~workload:!workload t ~seed:!seed in
      (1, m, mismatches)
  in
  List.iter (fun w -> Printf.printf "FAILED: %s\n" w) (List.rev t.W.why);
  List.iter (fun w -> Printf.printf "TRACE MISMATCH: %s\n" w) mismatches;
  List.iter (fun (n, u, v) -> Printf.printf "%-40s %14.6g %s\n" n v u) metrics;
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"jobs\": %d, \"nproc\": %d, \"ocaml\": %S, \"revision\": %S, \"loadavg_1m\": %s, \
     \"reps\": %d, \"wall_s\": %s}}\n"
    !workload !seed (json_float !seconds) !trace W.jobs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !revision (json_float load) reps
    (json_float (P.now () -. t0));
  let correct = t.W.failed = 0 && t.W.attempted > 0 && mismatches = [] in
  (* a traced run whose driver diverged from the library reports no
     layer numbers at all *)
  let metrics =
    if mismatches = [] then metrics else List.map (fun (n, u, _) -> (n, u, nan)) metrics
  in
  let failed = t.W.failed + List.length mismatches in
  print_result ~correct ~attempted:t.W.attempted ~failed metrics;
  exit (if correct then 0 else 1)
