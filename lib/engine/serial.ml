open Psme_support
open Psme_obs
open Psme_rete

(* The LIFO work stack, struct-of-arrays: a task is carried with its id
   and its parent's id so the tracer's event stream names the spawn
   DAG. Ids are assigned at push, so a parent's id is always smaller
   than its children's (the critical-path analyzer's invariant). Push and
   pop allocate nothing; tracing off costs one branch per task. *)
type stack = {
  mutable ids : int array;
  mutable parents : int array;
  mutable tasks : Task.t array;
  mutable len : int;
  mutable next_id : int;
}

(* What a popped slot holds: a stale task left there would stay
   reachable, and be promoted by the next minor collection. *)
let vacant = Task.Left { node = -1; flag = Task.Add; token = Token.of_wmes [||] }

let push st ~parent task =
  let n = st.len in
  if n = Array.length st.tasks then begin
    let cap = max 16 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    st.ids <- grow st.ids 0;
    st.parents <- grow st.parents 0;
    st.tasks <- grow st.tasks vacant
  end;
  st.ids.(n) <- st.next_id;
  st.parents.(n) <- parent;
  st.tasks.(n) <- task;
  st.len <- n + 1;
  st.next_id <- st.next_id + 1

(* Buffer wme changes through the alpha network onto the stack; returns
   the constant-test activations performed. *)
let seed_changes net st ~parent changes =
  List.fold_left
    (fun acts (flag, w) -> acts + Runtime.seed net flag w (push st ~parent))
    0 changes

(* The one drain loop behind [run_tasks], [run_changes] and
   [run_changes_async]: [seed] fills the stack and returns the alpha
   activations it performed; with [on_inst], every instantiation a P-node
   task adds fires at once and its wme changes join the episode, pushed
   as that task's children. *)
let episode ~cost ?tracer ?on_inst net seed =
  let t0 = Clock.now_ns () in
  let st = { ids = [||]; parents = [||]; tasks = [||]; len = 0; next_id = 0 } in
  let alpha = ref (seed st) in
  let tasks = ref 0 in
  let serial_us = ref 0. in
  let charge = { Cost.task_us = 0. } in
  let scanned = ref 0 in
  let emitted = ref 0 in
  while st.len > 0 do
    let top = st.len - 1 in
    let id = st.ids.(top) and parent = st.parents.(top) and task = st.tasks.(top) in
    st.tasks.(top) <- vacant;
    st.len <- top;
    let node = Task.node task in
    (match tracer with
    | Some tr ->
      Trace.emit tr Trace.Task_start ~t_us:!serial_us ~proc:0 ~node ~task:id ~parent ()
    | None -> ());
    let o = Runtime.exec net task in
    incr tasks;
    Cost.charge cost o charge;
    let c = charge.Cost.task_us in
    (* [record_task_us]'s conversion: a float argument would be boxed *)
    Telemetry.record_task_ns Telemetry.global (int_of_float (c *. 1e3));
    let kids = o.Runtime.children in
    let nkids = Array.length kids in
    (match tracer with
    | Some tr ->
      Trace.emit tr Trace.Task_end ~t_us:(!serial_us +. c) ~proc:0 ~node ~task:id
        ~parent ~dur_us:c ~scanned:o.Runtime.scanned ~emitted:nkids ();
      Trace_emit.mem_access tr ~t_us:(!serial_us +. c) ~proc:0 ~task:id o
    | None -> ());
    serial_us := !serial_us +. c;
    scanned := !scanned + o.Runtime.scanned;
    emitted := !emitted + nkids;
    for i = 0 to nkids - 1 do
      push st ~parent:id kids.(i)
    done;
    match on_inst with
    | None -> ()
    | Some fire ->
      (* a loop, not List.iter: a closure over [serial_us] would box
         every update of it *)
      let insts = ref o.Runtime.insts in
      while !insts != [] do
        match !insts with
        | [] -> ()
        | (flag, inst) :: rest ->
          insts := rest;
          (match flag with
          | Task.Add ->
            serial_us := !serial_us +. cost.Cost.fire_us;
            (* wme changes of the firing chain through the P-node task *)
            alpha := !alpha + seed_changes net st ~parent:id (fire inst)
          | Task.Delete -> ())
      done
  done;
  let alpha_us = cost.Cost.alpha_act_us *. float_of_int !alpha in
  {
    Cycle.empty with
    tasks = !tasks;
    alpha_activations = !alpha;
    serial_us = !serial_us +. alpha_us;
    makespan_us = !serial_us +. alpha_us;
    scanned = !scanned;
    emitted = !emitted;
    wall_ns = Clock.now_ns () - t0;
  }

let run_tasks ?(cost = Cost.default) ?tracer net seed =
  episode ~cost ?tracer net (fun st ->
      List.iter (push st ~parent:(-1)) seed;
      0)

let run_changes ?(cost = Cost.default) ?tracer net changes =
  episode ~cost ?tracer net (fun st -> seed_changes net st ~parent:(-1) changes)

let run_changes_async ?(cost = Cost.default) ?tracer net ~on_inst changes =
  episode ~cost ?tracer ~on_inst net (fun st -> seed_changes net st ~parent:(-1) changes)
