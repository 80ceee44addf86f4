(* Frozen measurements for the shipped workloads.

   Runs in a fresh process — the symbol table, and therefore every khash
   and line assignment, is in its deterministic initial state — and
   prints the totals the cost model is built on. The runtest rule diffs
   the output against golden.expected: a kernel optimization must leave
   every one of these numbers bit-identical (it may change speed, never
   the reproduced measurements). Use `dune promote` only for a change
   that is *supposed* to alter match semantics, and say so in the
   commit.

   The first two lines are eight-puzzle and strips with learning off on
   the serial engine. The rest are learning-on runs of every workload
   (io-stream builds no chunks by construction): a serial line with the
   run's shape and match totals, then the modeled speedup of the same
   run on the 13-process, multiple-queue simulator. Both kinds of line
   depend on the order of a cycle's changes: reordering a decision's
   deletes moves the serial scanned, tasks and emitted totals (strips
   with learning off shows it) as well as the modeled speedups. Decide
   pushes its deletes in working memory's walk order; the second
   runtest rule runs this program with every hash table randomized
   (OCAMLRUNPARAM=R) and diffs it against the same expected file. *)

open Psme_engine
open Psme_soar
open Psme_workloads

let learning_off () =
  List.iter
    (fun (w : Workload.t) ->
      let agent =
        w.Workload.make ~config:{ Agent.default_config with Agent.learning = false } ()
      in
      ignore (Agent.run agent);
      let t = Engine.totals (Agent.engine agent) in
      Printf.printf "%s scanned=%d alpha=%d tasks=%d emitted=%d\n" w.Workload.name
        t.Cycle.scanned t.Cycle.alpha_activations t.Cycle.tasks t.Cycle.emitted)
    [ Eight_puzzle.workload; Strips.workload ]

let learning_on () =
  let sim13 =
    Engine.Sim_mode { Sim.procs = 13; queues = Parallel.Multiple_queues; collect_trace = false }
  in
  let task (w : Workload.t) = (w.Workload.name, fun config -> w.Workload.make ~config ()) in
  List.iter
    (fun (name, make) ->
      let agent = make Agent.default_config in
      let s = Agent.run agent in
      let t = Engine.totals (Agent.engine agent) in
      Printf.printf
        "%s learn decisions=%d elab=%d chunks=%d wm=%d scanned=%d alpha=%d tasks=%d \
         emitted=%d\n"
        name s.Agent.decisions s.Agent.elab_cycles (List.length s.Agent.chunks)
        (Psme_ops5.Wm.size (Agent.wm agent))
        t.Cycle.scanned t.Cycle.alpha_activations t.Cycle.tasks t.Cycle.emitted;
      let agent = make { Agent.default_config with Agent.engine_mode = sim13 } in
      ignore (Agent.run agent);
      Printf.printf "%s learn sim13 speedup=%.4f\n" name
        (Cycle.speedup (Engine.totals (Agent.engine agent))))
    [
      task Eight_puzzle.workload;
      task Strips.workload;
      task Cypress.workload;
      ("io-stream", fun config -> Io_stream.make_agent ~config ());
    ]

let () =
  learning_off ();
  learning_on ()
