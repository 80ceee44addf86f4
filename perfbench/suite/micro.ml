(* Bechamel kernels for the layers the timed loop can only see in
   aggregate: one call into a public entry point of the compiled match
   ([Runtime.exec]), the hashed memories, tokens, the alpha pass and
   run-time production addition. The fixtures are populated, as in a
   learning run: 128 residents share one hash bucket, so a probe pays
   the per-candidate test loop rather than the empty-table fast path.
   These are the fixtures of bench/main.ml's kernel section; until that
   program uses this module, a change to one copy belongs in both. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Bechamel
open Toolkit

let schema () =
  let schema = Schema.create () in
  ignore
    (Parser.parse_program schema
       {|
(literalize block name color on state)
(literalize hand state name)
(literalize place name table)
|});
  schema

let block ?on ~name ~color ~state ~timetag () =
  let fields = Array.make 4 Value.nil in
  fields.(0) <- Value.sym name;
  fields.(1) <- Value.sym color;
  Option.iter (fun o -> fields.(2) <- Value.sym o) on;
  fields.(3) <- Value.sym state;
  Wme.make ~cls:(Sym.intern "block") ~fields ~timetag

(* a join (or negation) whose opposite memory's candidates all pass the
   equality test and then face three residual tests *)
let scan_prod ~neg =
  Printf.sprintf
    {|(p kscan (block ^name <x> ^color <c> ^on <o> ^state <s>)
             %s(block ^on <x> ^name <> <o> ^color <> <c> ^state <> <s>)
             --> (write j))|}
    (if neg then "-" else "")

let node_fixture ~neg =
  let schema = schema () in
  let net =
    Network.create ~config:{ Network.default_config with Network.lines = 16 } schema
  in
  ignore (Build.add_all net (Parser.productions schema (scan_prod ~neg)));
  let node =
    Network.fold_nodes net ~init:None ~f:(fun acc n ->
        match (acc, n.Network.kind) with
        | Some _, _ -> acc
        | None, Network.Join _ when not neg -> Some n.Network.id
        | None, Network.Neg _ when neg -> Some n.Network.id
        | None, _ -> None)
  in
  (net, Option.get node)

let residents = 128

(* Left activation against [residents] right-memory wmes. With [miss]
   the token and every resident share a state, so the last residual
   test fails for each candidate and nothing is emitted. *)
let left_scan ~neg ~miss name =
  Test.make ~name
    (let net, node = node_fixture ~neg in
     for i = 1 to residents do
       let w =
         block ~on:"kb" ~name:(Printf.sprintf "n%d" i) ~color:(Printf.sprintf "c%d" i)
           ~state:(if miss then "ms" else Printf.sprintf "s%d" i)
           ~timetag:i ()
       in
       ignore (Runtime.exec net (Task.Right { node; flag = Task.Add; wme = w }))
     done;
     let token =
       Token.singleton
         (block ~name:"kb" ~color:"lc" ~on:"lo" ~state:(if miss then "ms" else "ls")
            ~timetag:9001 ())
     in
     Staged.stage (fun () ->
         ignore (Runtime.exec net (Task.Left { node; flag = Task.Add; token }));
         ignore (Runtime.exec net (Task.Left { node; flag = Task.Delete; token }))))

let right_scan name =
  Test.make ~name
    (let net, node = node_fixture ~neg:false in
     for i = 1 to residents do
       let w =
         block ~name:"kb" ~color:(Printf.sprintf "lc%d" i) ~on:(Printf.sprintf "lo%d" i)
           ~state:(Printf.sprintf "ls%d" i) ~timetag:(2000 + i) ()
       in
       ignore
         (Runtime.exec net (Task.Left { node; flag = Task.Add; token = Token.singleton w }))
     done;
     let tag = ref 9000 in
     Staged.stage (fun () ->
         incr tag;
         let w = block ~on:"kb" ~name:"rn" ~color:"rc" ~state:"rs" ~timetag:!tag () in
         ignore (Runtime.exec net (Task.Right { node; flag = Task.Add; wme = w }));
         ignore (Runtime.exec net (Task.Right { node; flag = Task.Delete; wme = w }))))

(* One hash line holding 128 distinct keys: insert, probe and remove a
   token under the line lock. *)
let memory_ops name =
  Test.make ~name
    (let lines = 64 in
     let mem = Memory.create ~lines () in
     let cls = Sym.intern "c" in
     for i = 1 to residents do
       let khash = i * lines in
       let w = Wme.make ~cls ~fields:[||] ~timetag:(1000 + i) in
       Memory.locked mem ~line:(Memory.line_of mem ~khash) (fun () ->
           ignore (Memory.left_add mem ~node:(100 + i) ~khash (Token.singleton w) ~count:0))
     done;
     let khash = (residents + 7) * lines in
     let line = Memory.line_of mem ~khash in
     let tag = ref 0 in
     Staged.stage (fun () ->
         incr tag;
         let tok = Token.singleton (Wme.make ~cls ~fields:[||] ~timetag:!tag) in
         Memory.locked mem ~line (fun () ->
             ignore (Memory.left_add mem ~node:1 ~khash tok ~count:0);
             ignore (Memory.left_iter mem ~node:1 ~khash (fun _ -> ()));
             ignore (Memory.left_remove mem ~node:1 ~khash tok))))

(* One join level on an 8-deep token. *)
let token_extend name =
  Test.make ~name
    (let cls = Sym.intern "block" in
     let base = ref (Token.singleton (Wme.make ~cls ~fields:[||] ~timetag:0)) in
     for i = 1 to 7 do
       base := Token.extend !base (Wme.make ~cls ~fields:[||] ~timetag:i)
     done;
     let w = Wme.make ~cls ~fields:[||] ~timetag:8 in
     let base = !base in
     Staged.stage (fun () -> ignore (Token.hash (Token.extend base w))))

let alpha_seed name =
  Test.make ~name
    (let schema = schema () in
     let prods =
       String.concat "\n"
         (List.init 64 (fun i ->
              Printf.sprintf {|(p w%d (block ^name n%d ^state live) --> (write x))|} i i))
     in
     let net = Network.create schema in
     ignore (Build.add_all net (Parser.productions schema prods));
     let w = block ~name:"n63" ~color:"c" ~state:"live" ~timetag:1 () in
     Staged.stage (fun () -> ignore (Runtime.seed_wme_change net Task.Add w)))

(* A fresh one-production network per iteration, then the measured
   addition shares its first alpha memory with it (§5.1). *)
let add_production name =
  Test.make ~name
    (let schema = schema () in
     let n = ref 0 in
     Staged.stage (fun () ->
         let net = Network.create schema in
         ignore
           (Build.add_all net
              (Parser.productions schema
                 {|(p base (block ^name <x> ^color blue) (hand ^state free) --> (write a))|}));
         incr n;
         ignore
           (Build.add_production net
              (Parser.parse_production schema
                 (Printf.sprintf
                    {|(p added-%d (block ^name <x> ^color blue) (place ^name <x> ^table free) --> (write x))|}
                    !n)))))

(* Fixtures are built only when run: building one interns symbols, and
   the program's counts depend on intern order. *)
let tests =
  [
    ("rete.program.join_left_ns", left_scan ~neg:false ~miss:false);
    ("rete.program.join_right_ns", right_scan);
    ("rete.program.join_miss_ns", left_scan ~neg:false ~miss:true);
    ("rete.program.neg_left_ns", left_scan ~neg:true ~miss:false);
    ("rete.memory.insert_probe_remove_ns", memory_ops);
    ("rete.token.extend_ns", token_extend);
    ("rete.alpha.seed_ns", alpha_seed);
    ("rete.build.add_production_ns", add_production);
  ]

(* ns per call, by OLS over Bechamel's run-count samples, scaled to the
   calibration kernel's reference speed *)
let run ~quota =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  List.map
    (fun (name, make) ->
      let test = make name in
      let before = Calib.sample () in
      let results = Benchmark.all cfg [ instance ] test in
      let scale = Calib.reference_ns /. sqrt (before *. Calib.sample ()) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
          ols Float.nan
      in
      (name, est *. scale))
    tests
