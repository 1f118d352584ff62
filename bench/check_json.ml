(* Checker for the quick-bench snapshots and campaign artifacts.

   Four modes, all dependency-free (a minimal RFC 8259 recursive-descent
   parser; numbers are kept as their raw source tokens so comparisons
   are byte-exact, never float-mediated):

     check_json FILE
       parse FILE and fail loudly if it is malformed.

     check_json --sim-cycles-chain F1 F2 ... Fn
       parse every file and demand, for each file against every file
       before it in the order given (oldest snapshot first), that every
       "sim_cycles" entry (a named cell or A/B entry) the earlier file
       carries is present in the later one with a byte-identical value.
       Allocation counts may differ between snapshots — simulated cycles
       may not: they are the deterministic reproduction output, and a
       change that shifts or drops one has changed the witness, not
       just the code's speed.

     check_json FILE --schema tsp-manifest-v1|tsp-results-v1
       structural validation of a campaign artifact.

     check_json FILE --identical REF
       raw-byte comparison (the replay contract). *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of string  (* raw source token, for byte-exact comparison *)
  | Bool of bool
  | Null

exception Bad of int * string

let parse (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail (Printf.sprintf "expected %S" w)
  in
  (* Returns the string's source characters between the quotes, escapes
     left as written: keys are compared between files produced by the
     same writer, so no unescaping is needed for equality. *)
  let string_lit () =
    expect '"';
    let start = !pos in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          let raw = String.sub s start (!pos - start) in
          advance ();
          raw
      | Some '\\' -> begin
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape"
        end
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with Some '0' .. '9' -> advance (); go () | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true"; Bool true
    | Some 'f' -> literal "false"; Bool false
    | Some 'n' -> literal "null"; Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected a JSON value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems (v :: acc)
        | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let parse_file file =
  let contents = read_file file in
  match parse contents with
  | v -> (v, String.length contents)
  | exception Bad (pos, msg) ->
      Printf.eprintf "%s: malformed JSON at byte %d: %s\n" file pos msg;
      exit 1

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* The raw "sim_cycles" tokens of every named entry in a section
   ("cells" or "ab"): [section_name -> (entry_name, raw_number) list]. *)
let sim_cycles_of section v =
  match member section v with
  | Some (Obj entries) ->
      List.filter_map
        (fun (name, entry) ->
          match member "sim_cycles" entry with
          | Some (Num raw) -> Some (name, raw)
          | _ -> None)
        entries
  | _ -> []

let cross_check ~file ~ref_file v ref_v =
  let shared = ref 0 and missing = ref [] and mismatches = ref [] in
  List.iter
    (fun section ->
      let ours = sim_cycles_of section v in
      List.iter
        (fun (name, ref_raw) ->
          match List.assoc_opt name ours with
          | None -> missing := Printf.sprintf "%s/%s" section name :: !missing
          | Some raw ->
              incr shared;
              if not (String.equal raw ref_raw) then
                mismatches :=
                  Printf.sprintf "%s/%s: %s (was %s in %s)" section name raw
                    ref_raw ref_file
                  :: !mismatches)
        (sim_cycles_of section ref_v))
    [ "cells"; "ab" ];
  let report what = function
    | [] -> ()
    | items ->
        Printf.eprintf "%s: %s (%d):\n" file what (List.length items);
        List.iter (fun m -> Printf.eprintf "  %s\n" m) (List.rev items)
  in
  report ("lacks sim_cycles entries that " ^ ref_file ^ " carries") !missing;
  report ("simulated cycles diverged from " ^ ref_file) !mismatches;
  if !missing <> [] || !mismatches <> [] then exit 1;
  if !shared = 0 then begin
    Printf.eprintf "%s vs %s: no shared sim_cycles entries to compare\n" file
      ref_file;
    exit 1
  end;
  Printf.printf "%s: %d sim_cycles entries identical to %s\n" file !shared
    ref_file

(* Campaign-artifact schema validation (PR 10): every manifest/results
   document Obs.Artifact writes must carry the shared prologue, and a
   manifest must additionally carry a replayable argv and a config
   object.  Validation is structural — key presence and type — because
   the per-subcommand payloads deliberately differ. *)
let check_schema ~file ~schema v =
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  let demand key pred what =
    match member key v with
    | Some x when pred x -> ()
    | Some _ -> fail (Printf.sprintf "%S is not %s" key what)
    | None -> fail (Printf.sprintf "missing %S" key)
  in
  demand "schema"
    (function Str s -> String.equal s schema | _ -> false)
    (Printf.sprintf "the string %S" schema);
  demand "subcommand" (function Str _ -> true | _ -> false) "a string";
  demand "git" (function Str _ -> true | _ -> false) "a string";
  demand "host" (function Str _ -> true | _ -> false) "a string";
  demand "jobs" (function Str "any" -> true | _ -> false) "the string \"any\"";
  if String.equal schema "tsp-manifest-v1" then begin
    demand "replay"
      (function
        | Arr items ->
            items <> []
            && List.for_all (function Str _ -> true | _ -> false) items
        | _ -> false)
      "a non-empty array of strings";
    demand "config" (function Obj _ -> true | _ -> false) "an object"
  end;
  Printf.printf "%s: valid %s\n" file schema

(* Byte-identity gate: the replay contract promises that re-running a
   campaign from its manifest reproduces the results document exactly,
   so the two files are compared as raw bytes, not parse trees. *)
let check_identical ~file ~ref_file =
  let a = read_file file and b = read_file ref_file in
  if String.equal a b then
    Printf.printf "%s: byte-identical to %s (%d bytes)\n" file ref_file
      (String.length a)
  else begin
    let n = min (String.length a) (String.length b) in
    let i = ref 0 in
    while !i < n && a.[!i] = b.[!i] do incr i done;
    Printf.eprintf
      "%s: differs from %s at byte %d (%d vs %d bytes total)\n" file ref_file
      !i (String.length a) (String.length b);
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; file ] ->
      let _, len = parse_file file in
      Printf.printf "%s: well-formed JSON (%d bytes)\n" file len
  | _ :: "--sim-cycles-chain" :: (_ :: _ :: _ as files) ->
      let docs = List.map (fun f -> (f, fst (parse_file f))) files in
      List.iteri
        (fun i (file, v) ->
          List.iteri
            (fun j (ref_file, ref_v) ->
              if j < i then cross_check ~file ~ref_file v ref_v)
            docs)
        docs
  | [ _; file; "--schema"; schema ]
    when schema = "tsp-manifest-v1" || schema = "tsp-results-v1" ->
      let v, _ = parse_file file in
      check_schema ~file ~schema v
  | [ _; file; "--identical"; ref_file ] -> check_identical ~file ~ref_file
  | _ ->
      prerr_endline
        "usage: check_json FILE\n\
        \       check_json --sim-cycles-chain FILE FILE...\n\
        \       check_json FILE --schema tsp-manifest-v1|tsp-results-v1\n\
        \       check_json FILE --identical REF";
      exit 2
