(* Integration tests of the experiment harness: the paper's headline
   shapes must hold in the regenerated tables (the full speedup sweeps
   run in `soar_cli report`; here we check the cheap table experiments
   and the bilinear report). *)

open Psme_harness

let test_table_6_1_shapes () =
  let rows = Experiments.table_6_1 () in
  Alcotest.(check int) "three tasks" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: positive uniprocessor time" r.Experiments.r61_task)
        true
        (r.Experiments.r61_uniproc_s > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-task cost in the paper's band (%.0f us)"
           r.Experiments.r61_task r.Experiments.r61_us_per_task)
        true
        (r.Experiments.r61_us_per_task > 100. && r.Experiments.r61_us_per_task < 1000.))
    rows;
  (* Cypress is the largest task, as in the paper *)
  let time name =
    (List.find (fun r -> r.Experiments.r61_task = name) rows).Experiments.r61_uniproc_s
  in
  Alcotest.(check bool) "cypress dominates" true
    (time "cypress" > time "eight-puzzle" && time "cypress" > time "strips")

let test_table_5_1_shapes () =
  let rows = Experiments.table_5_1 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: chunks bigger than task productions (%.1f > %.1f)"
           r.Experiments.r51_task r.Experiments.r51_chunk_ces r.Experiments.r51_task_ces)
        true
        (r.Experiments.r51_chunk_ces > r.Experiments.r51_task_ces);
      Alcotest.(check bool)
        (Printf.sprintf "%s: plausible bytes per two-input node (%.0f)"
           r.Experiments.r51_task r.Experiments.r51_bytes_per_two_input)
        true
        (r.Experiments.r51_bytes_per_two_input > 100.
        && r.Experiments.r51_bytes_per_two_input < 500.))
    rows;
  let chunk_ces name =
    (List.find (fun r -> r.Experiments.r51_task = name) rows).Experiments.r51_chunk_ces
  in
  Alcotest.(check bool) "cypress chunks are the largest" true
    (chunk_ces "cypress" > chunk_ces "eight-puzzle"
    && chunk_ces "cypress" > chunk_ces "strips")

let test_table_5_2_shapes () =
  let rows = Experiments.table_5_2 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: built chunks" r.Experiments.r52_task)
        true (r.Experiments.r52_chunks > 0);
      (* the deterministic mechanism behind Table 5-2: sharing generates
         less code *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: sharing generates less code (%d < %d bytes)"
           r.Experiments.r52_task r.Experiments.r52_shared_bytes
           r.Experiments.r52_unshared_bytes)
        true
        (r.Experiments.r52_shared_bytes < r.Experiments.r52_unshared_bytes);
      (* sub-millisecond wall times jitter; only catch gross regressions *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: shared compile not grossly slower (%.2f vs %.2f ms)"
           r.Experiments.r52_task r.Experiments.r52_shared_ms
           r.Experiments.r52_unshared_ms)
        true
        (r.Experiments.r52_shared_ms <= (r.Experiments.r52_unshared_ms *. 2.5) +. 0.5))
    rows

let test_bilinear_report () =
  let bl = Experiments.figure_6_8_bilinear () in
  Alcotest.(check string) "production" "monitor-strips-state" bl.Experiments.bl_production;
  Alcotest.(check bool) "long chain" true (bl.Experiments.bl_ces >= 40);
  Alcotest.(check bool)
    (Printf.sprintf "bilinear shortens the chain (%d < %d)"
       bl.Experiments.bl_bilinear_depth bl.Experiments.bl_linear_depth)
    true
    (bl.Experiments.bl_bilinear_depth < bl.Experiments.bl_linear_depth)

let test_histograms_shift_right () =
  (* Figure 6-11 vs 6-12: chunking moves cycle sizes right *)
  let mass_above h cut =
    List.fold_left
      (fun acc (lo, _, _, frac) -> if lo >= cut then acc +. frac else acc)
      0.
      (Psme_support.Histogram.rows h)
  in
  let without = Experiments.figure_6_11 () in
  let after = Experiments.figure_6_12 () in
  let cut = 300. in
  Alcotest.(check bool)
    (Printf.sprintf "more large cycles after chunking (%.2f > %.2f above %.0f)"
       (mass_above after cut) (mass_above without cut) cut)
    true
    (mass_above after cut > mass_above without cut)

let suite =
  [
    Alcotest.test_case "table 6-1 shapes" `Slow test_table_6_1_shapes;
    Alcotest.test_case "table 5-1 shapes" `Slow test_table_5_1_shapes;
    Alcotest.test_case "table 5-2 shapes" `Slow test_table_5_2_shapes;
    Alcotest.test_case "bilinear report" `Slow test_bilinear_report;
    Alcotest.test_case "histograms shift right" `Slow test_histograms_shift_right;
  ]
