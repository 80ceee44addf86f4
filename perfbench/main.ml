(* The repository benchmark. See README.md in this directory.

     dune exec perfbench/main.exe -- --workload strips-learn --seed 1 \
       --seconds 10 --trace 0

   --workload NAME   one workload (default: all four, names prefixed)
   --seed N          input seed (default 101)
   --seconds S       length of the timed loop (default 10)
   --trace 0|1       0: end-to-end metrics, 1: per-layer metrics
                     (default: both)
   --json FILE       also write the full results document
   --trace-out DIR   write each workload's span trace and 13-process
                     sim trace (Chrome trace format)

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. Exit codes: 0 ok, 1 an
   operation failed its output check, 2 usage. *)

open Perfbench_suite

let usage msg =
  prerr_endline ("main.exe: " ^ msg);
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--json FILE] [--trace-out DIR]";
  exit 2

let () =
  let workloads = ref Workloads.all in
  let seed = ref 101 in
  let seconds = ref 10. in
  let trace = ref None in
  let json = ref None in
  let trace_out = ref None in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> usage (flag ^ ": not an integer: " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: name :: rest ->
      (match Workloads.find name with
      | Some w -> workloads := [ w ]
      | None -> usage ("unknown workload " ^ name));
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := s
      | _ -> usage ("--seconds: not a positive number: " ^ v));
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> usage "--trace takes 0 or 1");
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--trace-out" :: dir :: rest ->
      trace_out := Some dir;
      parse rest
    | arg :: _ -> usage ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !trace_out with
  | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
    usage ("--trace-out: not a directory: " ^ dir)
  | _ -> ());
  let e2e, layers =
    match !trace with None -> (true, true) | Some t -> (not t, t)
  in
  let results =
    List.map
      (fun w ->
        let r =
          Suite.run ?trace_out:!trace_out ~seed:!seed ~seconds:!seconds ~e2e ~layers w
        in
        Report.print_table Format.std_formatter r;
        Option.iter (fun dir -> Report.write_spans ~dir r) !trace_out;
        r)
      !workloads
  in
  Option.iter
    (fun path -> Report.write_file path (Report.json_doc ~seed:!seed ~seconds:!seconds results))
    !json;
  print_endline (Report.result_line results);
  exit (if List.exists (fun r -> r.Suite.failures <> []) results then 1 else 0)
