(* The benchmark's failure accounting must see a planted bug: a strict-DL
   window run against the [Check_campaign.non_durable] mutant (writes
   acknowledged but never issued) has to come back as counted failures,
   while the same window on the unmutated map counts none. *)

module W = Perfbench.Workloads
module CC = Workload.Check_campaign

let dl_failures ?mutate ~seed () =
  let t = W.tally () in
  let steps = W.reference_steps t ~seed in
  let total_steps = List.assoc W.log_only steps in
  W.account_dl t (CC.run ~jobs:W.jobs (W.dl_spec ?mutate ~seed ~total_steps ()));
  t

let () =
  let seed = 3 in
  let clean = dl_failures ~seed () in
  if clean.W.failed <> 0 then
    Printf.ksprintf failwith "clean map: %d of %d operations counted as failed"
      clean.W.failed clean.W.attempted;
  let mutant = dl_failures ~mutate:(CC.non_durable ~seed ~every:2) ~seed () in
  if mutant.W.failed = 0 then
    Printf.ksprintf failwith "non-durable mutant: 0 of %d operations counted as failed"
      mutant.W.attempted;
  if not (List.mem "DL-flagged crash point" mutant.W.why) then
    failwith "non-durable mutant: failures not attributed to the DL check";
  Printf.printf
    "perfbench accounting: clean 0/%d failed, non-durable mutant %d/%d failed\n"
    clean.W.attempted mutant.W.failed mutant.W.attempted
