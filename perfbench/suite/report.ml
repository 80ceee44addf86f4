(* Output: a human-readable table, the one-line JSON result, the JSON
   document written by [--json], and the span/sim traces written by
   [--trace-out]. Floats are printed with every digit they carry. *)

let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Psme_obs.Json.escape_to_buffer b s;
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) fields) ^ "}"

let metrics_obj rows =
  obj (List.map (fun (n, u, v) -> (n, obj [ ("value", number v); ("unit", quote u) ])) rows)

let failed (r : Suite.result) = List.length r.Suite.failures

let print_table ppf (r : Suite.result) =
  let name = r.Suite.workload.Workloads.name in
  Format.fprintf ppf "== %s (%d operations checked, %d failed) ==@." name
    r.Suite.attempted (failed r);
  List.iter
    (fun (label, msg) -> Format.fprintf ppf "  FAILED %s: %s@." label msg)
    r.Suite.failures;
  Format.fprintf ppf "  samples: %s@."
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) r.Suite.samples));
  let row (n, u, v) = Format.fprintf ppf "  %-40s %18s %s@." n (number v) u in
  List.iter row r.Suite.e2e;
  List.iter row r.Suite.layers

(* The result line, last on standard output: one workload, or every
   workload with metric names prefixed by the workload's. *)
let result_line (rs : Suite.result list) =
  let rows =
    match rs with
    | [ r ] -> r.Suite.e2e @ r.Suite.layers
    | _ ->
      List.concat_map
        (fun (r : Suite.result) ->
          List.map
            (fun (n, u, v) -> (r.Suite.workload.Workloads.name ^ "/" ^ n, u, v))
            (r.Suite.e2e @ r.Suite.layers))
        rs
  in
  let attempted = List.fold_left (fun a r -> a + r.Suite.attempted) 0 rs in
  let failed = List.fold_left (fun a r -> a + failed r) 0 rs in
  obj
    [
      ("correct", if failed = 0 then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", metrics_obj rows);
    ]

let json_doc ~seed ~seconds (rs : Suite.result list) =
  let workload (r : Suite.result) =
    obj
      [
        ("name", quote r.Suite.workload.Workloads.name);
        ("attempted", string_of_int r.Suite.attempted);
        ("failed", string_of_int (failed r));
        ( "failures",
          "[" ^ String.concat ", "
                  (List.map (fun (l, m) -> obj [ ("op", quote l); ("msg", quote m) ])
                     r.Suite.failures)
          ^ "]" );
        ("samples", obj (List.map (fun (k, n) -> (k, string_of_int n)) r.Suite.samples));
        ("end_to_end", metrics_obj r.Suite.e2e);
        ("per_layer", metrics_obj r.Suite.layers);
      ]
  in
  obj
    [
      ("schema", quote "psme-perfbench/1");
      ("seed", string_of_int seed);
      ("seconds", number seconds);
      ("workloads", "[" ^ String.concat ",\n" (List.map workload rs) ^ "]");
    ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* --- traces ----------------------------------------------------------------- *)

(* Chrome trace of the benchmark's own spans: op -> setup / run ->
   decision, each with its id and its parent's, in wall-clock
   microseconds from the first operation. *)
let spans_trace (loop : Measure.loop) =
  let ops = loop.Measure.warmup :: Measure.all_ops loop in
  let t0 = match ops with o :: _ -> o.Measure.setup_t0 | [] -> 0 in
  let us ns = number (float_of_int (ns - t0) /. 1e3) in
  let dur ns = number (float_of_int ns /. 1e3) in
  let next = ref 0 in
  let events = ref [] in
  let span ~name ~parent ~start ~len args =
    incr next;
    let id = !next in
    events :=
      obj
        [
          ("name", quote name); ("ph", quote "X"); ("pid", "1"); ("tid", "1");
          ("ts", us start); ("dur", dur len);
          ("args", obj ([ ("id", string_of_int id); ("parent", string_of_int parent) ] @ args));
        ]
      :: !events;
    id
  in
  List.iter
    (fun (o : Measure.op_result) ->
      let op_end = o.Measure.run_t0 + o.Measure.run_ns in
      let op =
        span ~name:("op " ^ o.Measure.label) ~parent:0 ~start:o.Measure.setup_t0
          ~len:(op_end - o.Measure.setup_t0)
          [ ("check", quote (Option.value ~default:"ok" o.Measure.error)) ]
      in
      ignore (span ~name:"setup" ~parent:op ~start:o.Measure.setup_t0 ~len:o.Measure.setup_ns []);
      let run =
        span ~name:"run" ~parent:op ~start:o.Measure.run_t0 ~len:o.Measure.run_ns
          [ ("cycles", string_of_int o.Measure.cycles) ]
      in
      let prev = ref o.Measure.run_t0 in
      Array.iteri
        (fun i t ->
          ignore
            (span ~name:"decision" ~parent:run ~start:!prev ~len:(t - !prev)
               [ ("n", string_of_int (i + 1)) ]);
          prev := t)
        o.Measure.decision_stamps)
    ops;
  "{\"traceEvents\": [\n" ^ String.concat ",\n" (List.rev !events) ^ "\n]}"

let write_spans ~dir (r : Suite.result) =
  write_file
    (Filename.concat dir (r.Suite.workload.Workloads.name ^ ".spans.json"))
    (spans_trace r.Suite.loop)
