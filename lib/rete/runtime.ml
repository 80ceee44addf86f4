open Network

(* The canonical outcome definition lives in [Program] (the node
   programs); re-exported here with a type equation so engines and
   analyses keep reading [o.Runtime.children] etc. unchanged. *)

type cost_class = Program.cost_class =
  | Entry_task
  | Two_input_task
  | Pnode_task
  | Absorbed_task

type outcome = Program.outcome = {
  children : Task.t array;
  scanned : int;
  insts : (Task.flag * Conflict_set.inst) list;
  cost_class : cost_class;
  acc_node : int;
  acc_line : int;
  acc_locked : bool;
}

(* Fault-injection hook (lives in [Program], whose sections take the
   line locks). *)
let set_lock_elision = Program.set_lock_elision
let lock_elision = Program.lock_elision

(* Task, scan and emit totals are not counted here: every engine adds
   them once per episode ([engine.tasks], [.scanned], [.emitted]), so the
   per-task path bumps no shared counter. The alpha pass runs once per
   wme change, not per task. *)
let m_alpha =
  Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.alpha_activations"

(* The jumptable dispatch (§5.1): every live node has a compiled
   program; a task whose node was excised while it sat in a queue finds
   an empty slot and is absorbed. *)
let exec net task =
  match Program.find net (Task.node task) with
  | Some p -> Program.run p task
  | None -> Program.absorbed

(* --- alpha seeding ------------------------------------------------------ *)

let seed ?(min_node_id = 0) net flag w push =
  let activations =
    Alpha.matching_successors net.alpha w (fun succs ->
        for i = 0 to Array.length succs - 1 do
          let nid = succs.(i) in
          if nid >= min_node_id then push (Task.Right { node = nid; flag; wme = w })
        done)
  in
  Psme_obs.Metrics.add m_alpha activations;
  activations

let seed_wme_change ?min_node_id net flag w =
  let tasks = ref [] in
  let activations = seed ?min_node_id net flag w (fun t -> tasks := t :: !tasks) in
  (List.rev !tasks, activations)
