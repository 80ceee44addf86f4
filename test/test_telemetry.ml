(* Tests for the always-on telemetry layer: the log-scale histogram,
   the zero-allocation contract of the record path, exclusive GC/phase
   attribution, the frozen JSON field names, the binary event-stream
   codec and the JSON parser. *)

open Psme_obs

(* --- loghist ------------------------------------------------------------- *)

let test_loghist_basics () =
  let h = Loghist.create () in
  Alcotest.(check int) "empty count" 0 (Loghist.count h);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Loghist.percentile h 50.));
  List.iter (Loghist.add h) [ 0; 1; 7; 15; 100; 1_000; 1_000_000; -5 ];
  Alcotest.(check int) "count (negatives clamp to 0)" 8 (Loghist.count h);
  Alcotest.(check int) "min" 0 (Loghist.min h);
  Alcotest.(check int) "max" 1_000_000 (Loghist.max h);
  Alcotest.(check int) "sum" 1_001_123 (Loghist.sum h);
  (* values 0-15 land in exact unit buckets *)
  Alcotest.(check (float 0.)) "p=0 is min" 0. (Loghist.percentile h 0.);
  Alcotest.(check (float 0.)) "p=100 is exact max" 1_000_000.
    (Loghist.percentile h 100.)

let test_loghist_relative_error () =
  (* bucket width is <= 1/16 of the octave, so any percentile of a
     single-value population is within 6.25% of that value *)
  List.iter
    (fun v ->
      let h = Loghist.create () in
      for _ = 1 to 100 do
        Loghist.add h v
      done;
      let p50 = Loghist.percentile h 50. in
      let err = Float.abs (p50 -. float_of_int v) /. float_of_int v in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of %d within 6.25%% (got %.1f)" v p50)
        true (err <= 0.0625))
    [ 17; 1_000; 123_456; 10_000_000; 987_654_321 ]

let test_loghist_merge () =
  let a = Loghist.create () and b = Loghist.create () in
  for i = 1 to 100 do
    Loghist.add a i
  done;
  for i = 101 to 200 do
    Loghist.add b (i * 1000)
  done;
  Loghist.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 200 (Loghist.count a);
  Alcotest.(check int) "merged max" 200_000 (Loghist.max a);
  Alcotest.(check int) "merged min" 1 (Loghist.min a);
  let total = ref 0 in
  Loghist.iter_nonempty (fun ~lower:_ ~upper:_ ~count -> total := !total + count) a;
  Alcotest.(check int) "bucket counts sum to count" 200 !total

(* --- zero-allocation record path ----------------------------------------- *)

let test_record_path_zero_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ ->
    (* bytecode boxes every float temporary; the contract is native *)
    ()
  | Sys.Native ->
    let t = Telemetry.create () in
    (* warm up so any one-time allocation is outside the window *)
    Telemetry.record_cycle_ns t 10;
    Telemetry.record_task_us t 1.5;
    Telemetry.record_dwell_ns t 10;
    Telemetry.incr_lock_acquired t;
    Telemetry.add_steals t 1;
    let us = Sys.opaque_identity 123.5 in
    let before = Gc.minor_words () in
    for i = 1 to 100_000 do
      Telemetry.record_cycle_ns t i;
      Telemetry.record_task_us t us;
      Telemetry.record_dwell_ns t i;
      Telemetry.add_steal_attempts t 1;
      Telemetry.incr_lock_acquired t
    done;
    let allocated = Gc.minor_words () -. before in
    (* budget covers the two Gc.minor_words calls themselves *)
    Alcotest.(check bool)
      (Printf.sprintf "500k record calls allocated %.0f words" allocated)
      true
      (allocated < 64.)

let test_phase_attribution_exclusive () =
  let t = Telemetry.create () in
  let churn n =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (ref 0))
    done
  in
  Telemetry.with_phase t Telemetry.Match (fun () ->
      churn 1_000;
      Telemetry.with_phase t Telemetry.Act (fun () -> churn 10_000));
  let kv = Telemetry.snapshot_kv t in
  let get k = Option.value ~default:(-1.) (List.assoc_opt k kv) in
  let m = get "telemetry.phase.match.minor_words" in
  let a = get "telemetry.phase.act.minor_words" in
  (* a ref is >= 2 words; attribution is exclusive, so the nested Act
     section's words must not be double-counted into Match *)
  Alcotest.(check bool) (Printf.sprintf "act saw its churn (%.0f)" a) true (a >= 15_000.);
  Alcotest.(check bool) (Printf.sprintf "match excludes act (%.0f)" m) true
    (m >= 1_000. && m <= 10_000.);
  Alcotest.(check (float 0.)) "one match section" 1.
    (get "telemetry.phase.match.sections");
  Alcotest.(check (float 0.)) "no dropped sections" 0.
    (get "telemetry.dropped_sections")

(* Collection counts are re-read only when promoted words moved, yet
   every collection must land in exactly one section: nested sections
   around forced minor collections that keep young data alive have
   exclusive counts summing to the whole program's, and see promoted
   words. Sections that allocate nothing read zero words and no
   collection, also when nested (the child's measurement words are
   charged to the parent's child total). *)
let test_collections_attributed_once () =
  let t = Telemetry.create () in
  let keep = ref [] in
  let collect () =
    for i = 1 to 1_000 do
      keep := ref i :: !keep
    done;
    Gc.minor ()
  in
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  Telemetry.with_phase t Telemetry.Match (fun () ->
      collect ();
      Telemetry.with_phase t Telemetry.Act (fun () ->
          collect ();
          collect ());
      collect ();
      Telemetry.with_phase t Telemetry.Chunk_splice (fun () ->
          Telemetry.with_phase t Telemetry.Conflict_resolution collect));
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity !keep);
  let kv = Telemetry.snapshot_kv t in
  let get p field =
    Option.value ~default:(-1.)
      (List.assoc_opt ("telemetry.phase." ^ Telemetry.phase_name p ^ "." ^ field) kv)
  in
  let sum field = List.fold_left (fun a p -> a +. get p field) 0. Telemetry.phases in
  Alcotest.(check (float 0.)) "exclusive minor collections sum to the program's"
    (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections))
    (sum "minor_collections");
  (* a forced minor collection counts one or two (a major slice may
     empty the minor heap again) *)
  List.iter
    (fun (p, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s saw at least %.0f minor collections" (Telemetry.phase_name p) n)
        true
        (get p "minor_collections" >= n))
    [ (Telemetry.Match, 2.); (Telemetry.Act, 2.); (Telemetry.Conflict_resolution, 1.) ];
  Alcotest.(check (float 0.)) "chunk-splice's collection is its child's" 0.
    (get Telemetry.Chunk_splice "minor_collections");
  (* the child's stat re-read allocated in chunk-splice's window *)
  Alcotest.(check (float 0.)) "chunk-splice's words are its child's" 0.
    (get Telemetry.Chunk_splice "minor_words");
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Telemetry.phase_name p ^ " promoted words")
        true
        (get p "promoted_words" > 0.))
    [ Telemetry.Match; Telemetry.Act; Telemetry.Conflict_resolution ];
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let e = Telemetry.create () in
    Telemetry.phase_begin e Telemetry.Match;
    Telemetry.phase_begin e Telemetry.Act;
    Telemetry.phase_end e Telemetry.Act;
    Telemetry.phase_end e Telemetry.Match;
    let kv = Telemetry.snapshot_kv e in
    List.iter
      (fun p ->
        List.iter
          (fun field ->
            let k = "telemetry.phase." ^ Telemetry.phase_name p ^ "." ^ field in
            Alcotest.(check (float 0.)) ("empty: " ^ k) 0.
              (Option.value ~default:(-1.) (List.assoc_opt k kv)))
          [
            "minor_words"; "promoted_words"; "major_words"; "minor_collections";
            "major_collections"; "compactions";
          ])
      [ Telemetry.Match; Telemetry.Act ]

let test_phase_overflow () =
  let t = Telemetry.create () in
  (* 12 nested begins overflow the 8-deep frame stack; the matching
     ends must drop symmetrically and leave the stack balanced *)
  for _ = 1 to 12 do
    Telemetry.phase_begin t Telemetry.Match
  done;
  for _ = 1 to 12 do
    Telemetry.phase_end t Telemetry.Match
  done;
  let kv = Telemetry.snapshot_kv t in
  let get k = Option.value ~default:(-1.) (List.assoc_opt k kv) in
  Alcotest.(check (float 0.)) "dropped count" 4. (get "telemetry.dropped_sections");
  Alcotest.(check (float 0.)) "recorded sections" 8.
    (get "telemetry.phase.match.sections");
  (* an unmatched extra end on the empty stack must not raise *)
  Telemetry.phase_end t Telemetry.Match

(* --- telemetry JSON: frozen field names ---------------------------------- *)

let test_telemetry_json_golden () =
  let t = Telemetry.create () in
  Telemetry.with_phase t Telemetry.Match (fun () -> ignore (Sys.opaque_identity (ref 0)));
  Telemetry.record_cycle_us t 100.;
  Telemetry.add_steals t 3;
  Telemetry.incr_lock_contended t;
  let s = Json.to_string (Telemetry.to_json t) in
  let doc =
    match Json.parse s with
    | Ok d -> d
    | Error e -> Alcotest.failf "telemetry JSON does not parse: %s" e
  in
  let has path =
    let node =
      List.fold_left
        (fun acc k -> Option.bind acc (Json.member k))
        (Some doc) path
    in
    Alcotest.(check bool) (String.concat "." path ^ " present") true
      (node <> None)
  in
  (* the contract consumed by soar_cli telemetry --json; renaming any
     of these is a breaking change *)
  Alcotest.(check bool) "schema" true
    (Json.member "schema" doc = Some (Json.Str "psme-telemetry/1"));
  List.iter has
    [
      [ "cycles" ];
      [ "dropped_sections" ];
      [ "phases"; "match"; "sections" ];
      [ "phases"; "match"; "time_us" ];
      [ "phases"; "match"; "minor_words" ];
      [ "phases"; "match"; "promoted_words" ];
      [ "phases"; "match"; "major_words" ];
      [ "phases"; "match"; "minor_collections" ];
      [ "phases"; "match"; "major_collections" ];
      [ "phases"; "match"; "compactions" ];
      [ "phases"; "match"; "max_gc_section_us" ];
      [ "phases"; "conflict-resolution"; "sections" ];
      [ "phases"; "act"; "sections" ];
      [ "phases"; "chunk-splice"; "sections" ];
      [ "hist"; "cycle_us"; "count" ];
      [ "hist"; "cycle_us"; "mean_us" ];
      [ "hist"; "cycle_us"; "p50_us" ];
      [ "hist"; "cycle_us"; "p90_us" ];
      [ "hist"; "cycle_us"; "p99_us" ];
      [ "hist"; "cycle_us"; "max_us" ];
      [ "hist"; "cycle_us"; "buckets" ];
      [ "hist"; "task_us"; "count" ];
      [ "hist"; "dwell_us"; "count" ];
      [ "queue"; "pushes" ];
      [ "queue"; "pops" ];
      [ "queue"; "steal_attempts" ];
      [ "queue"; "steals" ];
      [ "queue"; "steal_cas_failures" ];
      [ "queue"; "pop_races" ];
      [ "lock"; "acquired" ];
      [ "lock"; "contended" ];
      [ "lock"; "spins" ];
    ];
  (* non-empty histogram buckets carry the per-bucket contract *)
  (match
     Option.bind (Json.member "hist" doc) (Json.member "cycle_us")
     |> Fun.flip Option.bind (Json.member "buckets")
   with
  | Some (Json.List (Json.Obj fields :: _)) ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("bucket field " ^ k) true
          (List.mem_assoc k fields))
      [ "lo_ns"; "hi_ns"; "count" ]
  | _ -> Alcotest.fail "cycle_us has no buckets despite one sample");
  (* a snapshot taken now and one taken after counters moved produce a
     well-formed one-line delta *)
  let before = Telemetry.snapshot_kv t in
  Telemetry.record_cycle_us t 50.;
  Telemetry.add_steals t 2;
  let after = Telemetry.snapshot_kv t in
  let line = Telemetry.delta_line ~before ~after in
  Alcotest.(check bool) "delta line mentions cycles" true
    (String.length line > 0 && String.contains line 'c')

(* --- stream codec -------------------------------------------------------- *)

let ev ?(kind = Trace.Task_end) i =
  {
    Trace.t_us = float_of_int i *. 1.5;
    kind;
    proc = i mod 4;
    node = 100 + i;
    task = i;
    parent = i - 1;
    cycle = i / 10;
    dur_us = 0.25 *. float_of_int i;
    scanned = 2 * i;
    emitted = (if i mod 2 = 0 then 1 else 0);
  }

let test_stream_roundtrip () =
  let events =
    Array.append
      [| ev ~kind:Trace.Cycle_begin 0; ev ~kind:Trace.Mem_access 1 |]
      (Array.init 50 (fun i -> ev (i + 2)))
  in
  match Stream.decode (Stream.encode events) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok back ->
    Alcotest.(check int) "length" (Array.length events) (Array.length back);
    Array.iteri
      (fun i e ->
        Alcotest.(check bool)
          (Printf.sprintf "event %d survives" i)
          true (e = events.(i)))
      back

let test_stream_empty_roundtrip () =
  match Stream.decode (Stream.encode [||]) with
  | Ok [||] -> ()
  | Ok _ -> Alcotest.fail "empty stream decoded non-empty"
  | Error e -> Alcotest.failf "empty roundtrip failed: %s" e

let test_stream_decode_errors () =
  let bad name s =
    match Stream.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" name
  in
  let good = Stream.encode [| ev 1; ev 2 |] in
  bad "empty input" "";
  bad "short header" "PSMEEV";
  bad "bad magic" ("XXXXXXXX" ^ String.sub good 8 (String.length good - 8));
  bad "truncated event" (String.sub good 0 (String.length good - 5));
  bad "trailing bytes" (good ^ "\000");
  (* corrupt the first event's kind tag to an out-of-range value *)
  let unknown = Bytes.of_string good in
  Bytes.set unknown 16 '\255';
  bad "unknown tag" (Bytes.to_string unknown);
  (* count field claiming more events than present *)
  let overcount = Bytes.of_string good in
  Bytes.set_int64_le overcount 8 99L;
  bad "overstated count" (Bytes.to_string overcount)

let test_stream_file_roundtrip () =
  let path = Filename.temp_file "psme-stream" ".evs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let events = Array.init 10 ev in
      Stream.write_file path events;
      match Stream.read_file path with
      | Ok back -> Alcotest.(check int) "length" 10 (Array.length back)
      | Error e -> Alcotest.failf "file roundtrip failed: %s" e);
  Alcotest.(check bool) "missing file is Error" true
    (Result.is_error (Stream.read_file "/nonexistent/psme.evs"))

(* --- json parser --------------------------------------------------------- *)

let test_json_parse_tree () =
  let check_parse name src expected =
    match Json.parse src with
    | Ok v -> Alcotest.(check bool) name true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  check_parse "ints stay ints" "[1, -2, 0]"
    (Json.List [ Json.Int 1; Json.Int (-2); Json.Int 0 ]);
  check_parse "fractions become floats" "[1.5, 1e2]"
    (Json.List [ Json.Float 1.5; Json.Float 100. ]);
  check_parse "nested object" {|{"a": {"b": [true, null]}}|}
    (Json.Obj [ ("a", Json.Obj [ ("b", Json.List [ Json.Bool true; Json.Null ]) ]) ]);
  check_parse "escapes" {|"a\n\t\"\\A"|} (Json.Str "a\n\t\"\\A");
  (* emitter -> parser -> emitter is a fixed point *)
  let doc =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 2.5);
        ("s", Json.Str "x\"y");
        ("l", Json.List [ Json.Null; Json.Bool false ]);
      ]
  in
  let s = Json.to_string doc in
  (match Json.parse s with
  | Ok back -> Alcotest.(check string) "round-trip stable" s (Json.to_string back)
  | Error e -> Alcotest.failf "round-trip: %s" e);
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Result.is_error (Json.parse src)))
    [
      ("trailing data", "{} x");
      ("bare word", "nope");
      ("unterminated string", {|"abc|});
      ("lone brace", "{");
    ];
  (* accessors *)
  let d = Json.Obj [ ("a", Json.Int 3); ("b", Json.Str "s") ] in
  Alcotest.(check bool) "member hit" true (Json.member "a" d = Some (Json.Int 3));
  Alcotest.(check bool) "member miss" true (Json.member "z" d = None);
  Alcotest.(check bool) "member on list" true (Json.member "a" (Json.List []) = None);
  Alcotest.(check bool) "to_float_opt int" true
    (Json.to_float_opt (Json.Int 3) = Some 3.);
  Alcotest.(check bool) "to_float_opt str" true
    (Json.to_float_opt (Json.Str "3") = None)

let suite =
  [
    Alcotest.test_case "loghist basics" `Quick test_loghist_basics;
    Alcotest.test_case "loghist relative error" `Quick test_loghist_relative_error;
    Alcotest.test_case "loghist merge" `Quick test_loghist_merge;
    Alcotest.test_case "record path zero alloc" `Quick test_record_path_zero_alloc;
    Alcotest.test_case "phase attribution exclusive" `Quick
      test_phase_attribution_exclusive;
    Alcotest.test_case "collections attributed once" `Quick
      test_collections_attributed_once;
    Alcotest.test_case "phase stack overflow" `Quick test_phase_overflow;
    Alcotest.test_case "telemetry json golden" `Quick test_telemetry_json_golden;
    Alcotest.test_case "stream roundtrip" `Quick test_stream_roundtrip;
    Alcotest.test_case "stream empty roundtrip" `Quick test_stream_empty_roundtrip;
    Alcotest.test_case "stream decode errors" `Quick test_stream_decode_errors;
    Alcotest.test_case "stream file roundtrip" `Quick test_stream_file_roundtrip;
    Alcotest.test_case "json parse tree" `Quick test_json_parse_tree;
  ]
