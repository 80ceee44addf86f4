(* Same-hour A/B of the working tree against an older revision on the
   repository benchmark.

     make perfbench-ab BASE=<rev> [PAIRS=10] [TRACE=0|1] [FIRST_SEED=1]

   or directly, from the repository root:

     dune build tools/perfbench_ab.exe
     ./_build/default/tools/perfbench_ab.exe --base <rev> [--pairs N] [--trace 0|1]
       [--first-seed N]

   The base revision is exported with `git archive` into
   _perfbench-ab/base (no worktree is registered in the repository; the
   leading underscore keeps dune from building the copy as part of the
   working tree) and built there; the change is the working tree. For
   each pair and every workload of BENCHMARK.json, both sides run its
   command for its run_seconds with the same seed, the side that goes
   first alternating from pair to pair. Pair k runs seed
   first-seed + k - 1: the default seeds are the pair numbers, and
   [--first-seed 11] reruns a comparison on held-out seeds 11, 12, ...
   Every run's result line goes to _perfbench-ab/ab.jsonl. The summary
   prints, per workload, each side's failed runs (nonzero exit or not
   [correct]) and failed-operation share (the result lines' [failed]
   over their [attempted]); then per metric each side's median and
   quartiles over every run that reported it, the number of pairs the
   change won out of all pairs run (a pair whose change run failed is
   not won), and for each end-to-end metric a verdict from
   BENCHMARK.json's [better] and [bound] (see [verdict]). No metric
   reads gain when the change failed more runs or a larger share of
   operations than the base.
   Exit codes: 0 done (even if some runs failed), 2 usage or setup error. *)

module Json = Psme_obs.Json
module Stats = Psme_support.Stats

let usage msg =
  prerr_endline ("perfbench_ab: " ^ msg);
  prerr_endline
    "usage: perfbench_ab.exe --base REV [--pairs N] [--trace 0|1] [--first-seed N]";
  exit 2

let read_file path = In_channel.with_open_bin path In_channel.input_all

let dir = "_perfbench-ab"

let run_or_die cmd =
  if Sys.command cmd <> 0 then usage ("command failed: " ^ cmd)

(* --- BENCHMARK.json ------------------------------------------------------ *)

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type bench = {
  command : string list;
  run_seconds : float;
  workloads : string list;
  metrics : metric list;  (** end-to-end first, then per-layer *)
}

let load_bench path =
  let doc =
    match Json.parse (read_file path) with
    | Ok d -> d
    | Error e -> usage (path ^ ": " ^ e)
  in
  let field k j =
    match Json.member k j with Some v -> v | None -> usage (path ^ ": no field " ^ k)
  in
  let list = function Json.List l -> l | _ -> usage (path ^ ": expected a list") in
  let str = function Json.Str s -> s | _ -> usage (path ^ ": expected a string") in
  let metric j =
    {
      name = str (field "name" j);
      unit_ = str (field "unit" j);
      higher_better = str (field "better" j) = "higher";
      bound = Option.bind (Json.member "bound" j) Json.to_float_opt;
    }
  in
  {
    command = List.map str (list (field "command" doc));
    run_seconds =
      (match Json.to_float_opt (field "run_seconds" doc) with
      | Some s -> s
      | None -> usage (path ^ ": run_seconds is not a number"));
    workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" doc));
    metrics =
      List.map metric (list (field "end_to_end" doc) @ list (field "per_layer" doc));
  }

(* --- one run -------------------------------------------------------------- *)

type run = {
  pair : int;
  workload : string;
  side : string;  (** "base" or "change" *)
  values : (string * float) list;
  ok : bool;  (** exit 0 and [correct] *)
  attempted : int;  (** operations checked, from the result line (0 without one) *)
  failed : int;  (** operations that failed their output check *)
}

(* The benchmark's last stdout line is its result object. *)
let result_of_output text =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  match List.rev lines with
  | last :: _ -> ( match Json.parse last with Ok j -> Some j | Error _ -> None)
  | [] -> None

let run_one bench ~base ~side ~pair ~seed ~first ~workload ~trace =
  let root = if side = "base" then Filename.concat dir "base" else "." in
  let out = Filename.concat dir "run.out" in
  let cmd =
    String.concat " "
      (List.map Filename.quote
         (bench.command
         @ [
             "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" bench.run_seconds; "--trace"; string_of_int trace;
           ]))
  in
  (* a run that never gets to write its output must not read the last one's *)
  if Sys.file_exists out then Sys.remove out;
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s > %s" (Filename.quote root) cmd
         (Filename.quote (Filename.concat (Sys.getcwd ()) out)))
  in
  let result = if Sys.file_exists out then result_of_output (read_file out) else None in
  let values =
    match Option.bind result (Json.member "metrics") with
    | Some (Json.Obj kv) ->
      List.filter_map
        (fun (k, m) ->
          Option.map (fun v -> (k, v)) (Option.bind (Json.member "value" m) Json.to_float_opt))
        kv
    | _ -> []
  in
  let correct = Option.bind result (Json.member "correct") = Some (Json.Bool true) in
  let count k =
    match Option.bind result (Json.member k) with Some (Json.Int n) -> n | _ -> 0
  in
  let record =
    Json.Obj
      [
        ("pair", Json.Int pair);
        ("workload", Json.Str workload);
        ("side", Json.Str side);
        ("base", Json.Str base);
        ("first", Json.Bool first);
        ("seed", Json.Int seed);
        ("seconds", Json.Float bench.run_seconds);
        ("trace", Json.Int trace);
        ("exit", Json.Int code);
        ("result", Option.value result ~default:Json.Null);
      ]
  in
  ( {
      pair; workload; side; values; ok = code = 0 && correct;
      attempted = count "attempted"; failed = count "failed";
    },
    Json.to_string record )

(* --- summary ------------------------------------------------------------- *)

type side_stats = { med : float; q1 : float; q3 : float; lo : float; hi : float }

let side_stats xs =
  let a = Array.of_list xs in
  {
    med = Stats.percentile a 50.;
    q1 = Stats.percentile a 25.;
    q3 = Stats.percentile a 75.;
    lo = Array.fold_left Float.min infinity a;
    hi = Array.fold_left Float.max neg_infinity a;
  }

let better m x y = if m.higher_better then x > y else x < y

(* The verdict on an end-to-end metric, checked in this order:
   - gain: the change failed no more than the base ([fails_more] is
     false), wins at least 9 in 10 of all pairs run, and the medians
     differ (in the change's favour) by more than the base's quartile
     distance;
   - regressed: the change's median is worse than the base's by more than
     [bound] (a share of the base's median);
   - unresolved: either side's quartile distance over its median exceeds
     [bound], and not every change run beats every base run;
   - within bound otherwise. *)
let verdict m bound ~fails_more ~wins ~pairs b c =
  let spread s =
    if s.med = 0. then if s.q3 = s.q1 then 0. else infinity
    else (s.q3 -. s.q1) /. Float.abs s.med
  in
  let worse_limit =
    if m.higher_better then b.med *. (1. -. bound) else b.med *. (1. +. bound)
  in
  let all_beat = if m.higher_better then c.lo > b.hi else c.hi < b.lo in
  if (not fails_more) && 10 * wins >= 9 * pairs && better m c.med b.med
     && Float.abs (c.med -. b.med) > b.q3 -. b.q1
  then "gain"
  else if better m worse_limit c.med then "regressed"
  else if (spread b > bound || spread c > bound) && not all_beat then "unresolved"
  else "within bound"

let summarize bench runs workload =
  let runs = List.filter (fun r -> r.workload = workload) runs in
  let pairs = List.sort_uniq compare (List.map (fun r -> r.pair) runs) in
  let n_pairs = List.length pairs in
  let side_runs side = List.filter (fun r -> r.side = side) runs in
  let sum side f = List.fold_left (fun a r -> a + f r) 0 (side_runs side) in
  let failed_runs side = sum side (fun r -> if r.ok then 0 else 1) in
  let failed_share side =
    let attempted = sum side (fun r -> r.attempted) in
    if attempted = 0 then 0.
    else float_of_int (sum side (fun r -> r.failed)) /. float_of_int attempted
  in
  let fails_more =
    failed_runs "change" > failed_runs "base" || failed_share "change" > failed_share "base"
  in
  Printf.printf "\n%s: %d pairs\n" workload n_pairs;
  List.iter
    (fun side ->
      Printf.printf "  %-6s failed runs %d/%d, failed operations %d/%d (%.4g)\n" side
        (failed_runs side) (List.length (side_runs side))
        (sum side (fun r -> r.failed)) (sum side (fun r -> r.attempted)) (failed_share side))
    [ "base"; "change" ];
  if fails_more then
    print_endline "  the change failed more than the base: no metric reads gain";
  Printf.printf "  %-38s %-10s %-30s %-30s %9s %5s  %s\n" "metric" "unit"
    "base median [q1, q3]" "change median [q1, q3]" "chg/base" "wins" "verdict";
  let value side pair m =
    List.find_map
      (fun r -> if r.side = side && r.pair = pair then List.assoc_opt m.name r.values else None)
      runs
  in
  let change_ok pair = List.exists (fun r -> r.side = "change" && r.pair = pair && r.ok) runs in
  List.iter
    (fun m ->
      let values side = List.filter_map (fun p -> value side p m) pairs in
      match values "base", values "change" with
      | [], _ | _, [] -> ()
      | bs, cs ->
        let b = side_stats bs and c = side_stats cs in
        let won p =
          change_ok p
          && match value "base" p m, value "change" p m with
             | Some b, Some c -> better m c b
             | _ -> false
        in
        let wins = List.length (List.filter won pairs) in
        let cell s = Printf.sprintf "%.6g [%.6g, %.6g]" s.med s.q1 s.q3 in
        Printf.printf "  %-38s %-10s %-30s %-30s %9s %2d/%-2d  %s\n" m.name m.unit_
          (cell b) (cell c)
          (if b.med = 0. then "-" else Printf.sprintf "%.4f" (c.med /. b.med))
          wins n_pairs
          (match m.bound with
          | Some bound -> verdict m bound ~fails_more ~wins ~pairs:n_pairs b c
          | None -> ""))
    bench.metrics

(* --- main ------------------------------------------------------------------ *)

let () =
  let base = ref None and pairs = ref 10 and trace = ref 0 and first_seed = ref 1 in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> usage (flag ^ ": not an integer")
  in
  let rec parse = function
    | [] -> ()
    | "--base" :: v :: rest -> base := Some v; parse rest
    | "--pairs" :: v :: rest -> pairs := int_arg "--pairs" v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | "--first-seed" :: v :: rest -> first_seed := int_arg "--first-seed" v; parse rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base = match !base with Some b -> b | None -> usage "--base is required" in
  if !pairs < 1 then usage "--pairs must be at least 1";
  if not (Sys.file_exists "BENCHMARK.json") then usage "run from the repository root";
  let bench = load_bench "BENCHMARK.json" in
  let base_dir = Filename.concat dir "base" in
  run_or_die (Printf.sprintf "rm -rf %s && mkdir -p %s" (Filename.quote base_dir)
                (Filename.quote base_dir));
  run_or_die
    (Printf.sprintf "git archive --format=tar %s | tar -x -C %s" (Filename.quote base)
       (Filename.quote base_dir));
  (* build both sides before any timed run *)
  run_or_die "dune build --root . --display quiet perfbench/main.exe";
  run_or_die
    (Printf.sprintf "cd %s && dune build --root . --display quiet perfbench/main.exe"
       (Filename.quote base_dir));
  let jsonl = Filename.concat dir "ab.jsonl" in
  let oc = open_out jsonl in
  let runs = ref [] in
  for pair = 1 to !pairs do
    List.iter
      (fun workload ->
        let sides = if pair mod 2 = 1 then [ "base"; "change" ] else [ "change"; "base" ] in
        List.iteri
          (fun i side ->
            let r, line =
              run_one bench ~base ~side ~pair ~seed:(!first_seed + pair - 1) ~first:(i = 0)
                ~workload ~trace:!trace
            in
            output_string oc (line ^ "\n");
            flush oc;
            Printf.eprintf "pair %d/%d %s %s%s\n%!" pair !pairs workload side
              (if r.ok then "" else " FAILED");
            runs := r :: !runs)
          sides)
      bench.workloads
  done;
  close_out oc;
  Printf.printf
    "A/B: base %s vs the working tree, %g s per run, --trace %d, seeds %d-%d; runs in %s\n"
    base bench.run_seconds !trace !first_seed (!first_seed + !pairs - 1) jsonl;
  List.iter (summarize bench (List.rev !runs)) bench.workloads
