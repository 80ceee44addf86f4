(* Same-hour A/B of the working tree against an older revision on the
   repository benchmark.

     make perfbench-ab BASE=<rev> [PAIRS=10] [TRACE=0|1]

   or directly, from the repository root:

     dune build tools/perfbench_ab.exe
     ./_build/default/tools/perfbench_ab.exe --base <rev> [--pairs N] [--trace 0|1]

   The base revision is exported with `git archive` into
   _perfbench-ab/base (no worktree is registered in the repository; the
   leading underscore keeps dune from building the copy as part of the
   working tree) and built there; the change is the working tree. For
   each pair and every workload of BENCHMARK.json, both sides run its
   command for its run_seconds with the same seed (the pair number), the
   side that goes first alternating from pair to pair. Every run's
   result line goes to _perfbench-ab/ab.jsonl; the summary prints, per
   workload and metric, each side's median and quartiles and the number
   of pairs the change won. A pair in which either run failed (nonzero
   exit or not [correct]) is left out of the summary and counted.
   Exit codes: 0 done (even if some runs failed), 2 usage or setup error. *)

module Json = Psme_obs.Json
module Stats = Psme_support.Stats

let usage msg =
  prerr_endline ("perfbench_ab: " ^ msg);
  prerr_endline
    "usage: perfbench_ab.exe --base REV [--pairs N] [--trace 0|1]";
  exit 2

let read_file path = In_channel.with_open_bin path In_channel.input_all

let dir = "_perfbench-ab"

let run_or_die cmd =
  if Sys.command cmd <> 0 then usage ("command failed: " ^ cmd)

(* --- BENCHMARK.json ------------------------------------------------------ *)

type metric = { name : string; unit_ : string; higher_better : bool }

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
}

(* The benchmark's last stdout line is its result object. *)
let result_of_output text =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
  match List.rev lines with
  | last :: _ -> ( match Json.parse last with Ok j -> Some j | Error _ -> None)
  | [] -> None

let run_one bench ~base ~side ~pair ~first ~workload ~trace =
  let root = if side = "base" then Filename.concat dir "base" else "." in
  let out = Filename.concat dir "run.out" in
  let cmd =
    String.concat " "
      (List.map Filename.quote
         (bench.command
         @ [
             "--workload"; workload; "--seed"; string_of_int pair; "--seconds";
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
  let record =
    Json.Obj
      [
        ("pair", Json.Int pair);
        ("workload", Json.Str workload);
        ("side", Json.Str side);
        ("base", Json.Str base);
        ("first", Json.Bool first);
        ("seed", Json.Int pair);
        ("seconds", Json.Float bench.run_seconds);
        ("trace", Json.Int trace);
        ("exit", Json.Int code);
        ("result", Option.value result ~default:Json.Null);
      ]
  in
  ({ pair; workload; side; values; ok = code = 0 && correct }, Json.to_string record)

(* --- summary ------------------------------------------------------------- *)

let summarize bench runs workload =
  let runs = List.filter (fun r -> r.workload = workload) runs in
  let pairs = List.sort_uniq compare (List.map (fun r -> r.pair) runs) in
  let failed = List.filter (fun r -> not r.ok) runs in
  let pairs = List.filter (fun p -> not (List.exists (fun r -> r.pair = p) failed)) pairs in
  Printf.printf "\n%s: %d pairs summarized, %d failed runs (their pairs left out)\n" workload
    (List.length pairs) (List.length failed);
  Printf.printf "  %-38s %-10s %-30s %-30s %9s %5s\n" "metric" "unit" "base median [q1, q3]"
    "change median [q1, q3]" "chg/base" "wins";
  let value side pair m =
    List.find_map
      (fun r -> if r.side = side && r.pair = pair then List.assoc_opt m.name r.values else None)
      runs
  in
  List.iter
    (fun m ->
      let both =
        List.filter_map
          (fun p ->
            match value "base" p m, value "change" p m with
            | Some b, Some c -> Some (b, c)
            | _ -> None)
          pairs
      in
      if both <> [] then begin
        let stats xs =
          let a = Array.of_list xs in
          (Stats.percentile a 50., Stats.percentile a 25., Stats.percentile a 75.)
        in
        let bm, bq1, bq3 = stats (List.map fst both) in
        let cm, cq1, cq3 = stats (List.map snd both) in
        let wins =
          List.length
            (List.filter (fun (b, c) -> if m.higher_better then c > b else c < b) both)
        in
        let cell (med, q1, q3) = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3 in
        Printf.printf "  %-38s %-10s %-30s %-30s %9s %2d/%-2d\n" m.name m.unit_
          (cell (bm, bq1, bq3)) (cell (cm, cq1, cq3))
          (if bm = 0. then "-" else Printf.sprintf "%.4f" (cm /. bm))
          wins (List.length both)
      end)
    bench.metrics

(* --- main ------------------------------------------------------------------ *)

let () =
  let base = ref None and pairs = ref 10 and trace = ref 0 in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> usage (flag ^ ": not an integer")
  in
  let rec parse = function
    | [] -> ()
    | "--base" :: v :: rest -> base := Some v; parse rest
    | "--pairs" :: v :: rest -> pairs := int_arg "--pairs" v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
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
              run_one bench ~base ~side ~pair ~first:(i = 0) ~workload ~trace:!trace
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
  Printf.printf "A/B: base %s vs the working tree, %g s per run, --trace %d; runs in %s\n"
    base bench.run_seconds !trace jsonl;
  List.iter (summarize bench (List.rev !runs)) bench.workloads
