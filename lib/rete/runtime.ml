open Network

(* The canonical access/outcome definitions live in [Program] (the node
   programs); re-exported here with type equations so engines and
   analyses keep reading [o.Runtime.children] etc. unchanged. *)

type access = Program.access = {
  acc_node : int;
  acc_line : int;
  acc_write : bool;
  acc_locked : bool;
}

type outcome = Program.outcome = {
  children : Task.t array;
  scanned : int;
  matched : int;
  insts : (Task.flag * Conflict_set.inst) list;
  accesses : access list;
}

(* Fault-injection hook (lives in [Program], whose sections take the
   line locks). *)
let set_lock_elision = Program.set_lock_elision
let lock_elision = Program.lock_elision

(* Process-wide activation counters, shared by all engines (the
   observability layer's registry). Atomic, so the real parallel
   engine's domains can bump them concurrently. *)
let m_tasks = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.tasks"
let m_scanned = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.scanned"
let m_children = Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.children"

let m_alpha =
  Psme_obs.Metrics.counter Psme_obs.Metrics.global "rete.runtime.alpha_activations"

(* The jumptable dispatch (§5.1): every live node has a compiled
   program; a task whose node was excised while it sat in a queue finds
   an empty slot and is absorbed. *)
let exec net task =
  let o =
    match Program.find net (Task.node task) with
    | Some p -> Program.run p task
    | None -> Program.no_children
  in
  Psme_obs.Metrics.incr m_tasks;
  Psme_obs.Metrics.add m_scanned o.scanned;
  Psme_obs.Metrics.add m_children (Array.length o.children);
  o

(* --- alpha seeding ------------------------------------------------------ *)

let seed_wme_change ?(min_node_id = 0) net flag w =
  let tasks = ref [] in
  let activations =
    Alpha.matching_amems net.alpha w (fun amem ->
        List.iter
          (fun nid ->
            if nid >= min_node_id then
              tasks := Task.Right { node = nid; flag; wme = w } :: !tasks)
          (Alpha.successors net.alpha ~amem))
  in
  Psme_obs.Metrics.add m_alpha activations;
  (List.rev !tasks, activations)
