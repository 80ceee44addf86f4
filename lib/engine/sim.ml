open Psme_support
open Psme_obs
open Psme_rete

type config = {
  procs : int;
  queues : Parallel.queue_mode;
  collect_trace : bool;
}

(* Queue items carry (id, parent, push_t_us, task): serial numbers are
   assigned at spawn time, so a parent's id is always below its
   children's — the invariant the critical-path analyzer relies on —
   and the virtual push time lets the popper record queue dwell into
   the telemetry layer. *)
type squeue = {
  items : (int * int * float * Task.t) Vec.t;
  mutable busy_until : float;
}

type event =
  | Try_pop of int  (** processor becomes ready to look for work *)
  | Finish of { proc : int; parent : int; children : Task.t array }
  | Inject of { proc : int; parent : int; tasks : Task.t list }
      (** the control process delivers the wme changes of a fired
          instantiation (asynchronous elaboration, §7) *)

let run_tasks_gen ?(cost = Cost.default) ?tracer ?on_inst config net seed =
  let t0 = Clock.now_ns () in
  let nq =
    match config.queues with
    | Parallel.Single_queue -> 1
    | Parallel.Multiple_queues -> max 1 config.procs
  in
  let queues = Array.init nq (fun _ -> { items = Vec.create (); busy_until = 0. }) in
  let next_id = ref 0 in
  let fresh () =
    let i = !next_id in
    incr next_id;
    i
  in
  let outstanding = ref 0 in
  List.iteri
    (fun i task ->
      incr outstanding;
      let id = fresh () in
      Vec.push queues.(i mod nq).items (id, -1, 0., task);
      match tracer with
      | Some tr ->
        (* seeds are placed by the control process before time starts *)
        Trace.emit tr Trace.Queue_push ~t_us:0. ~proc:(-1)
          ~node:(Task.node task) ~task:id ()
      | None -> ())
    seed;
  let events = Event_queue.create () in
  for p = 0 to config.procs - 1 do
    Event_queue.add events ~time:0. (Try_pop p)
  done;
  let tasks_done = ref 0 in
  let serial_us = ref 0. in
  let scanned = ref 0 in
  let emitted = ref 0 in
  let spins = ref 0. in
  let failed_pops = ref 0 in
  let pops = ref 0 in
  let steal_attempts = ref 0 in
  (* probes of a non-own queue (k > 0); successful ones are steals *)
  let steals = ref 0 in
  let makespan = ref 0. in
  let alpha = ref 0 in
  let pending_injections = ref 0 in
  let trace = Vec.create () in
  let sample time =
    if config.collect_trace then Vec.push trace (time, !outstanding)
  in
  sample 0.;
  (* Exclusive access to a queue: wait until it is free, charge the
     wait as lock spins, occupy it for one operation. Returns the time
     at which the operation completes. *)
  let queue_access q ~proc ~at =
    let start = Float.max at q.busy_until in
    (if start > at then begin
       spins := !spins +. ((start -. at) /. cost.Cost.spin_unit_us);
       match tracer with
       | Some tr ->
         Trace.emit tr Trace.Lock_wait ~t_us:start ~proc ~dur_us:(start -. at) ()
       | None -> ()
     end);
    q.busy_until <- start +. cost.Cost.queue_op_us;
    q.busy_until
  in
  let my_queue p = p mod nq in
  (* Push one spawned task, charging a queue operation. *)
  let push_child q ~proc ~parent ~at task =
    let t = queue_access q ~proc ~at in
    let id = fresh () in
    Vec.push q.items (id, parent, t, task);
    incr outstanding;
    (match tracer with
    | Some tr ->
      Trace.emit tr Trace.Queue_push ~t_us:t ~proc ~node:(Task.node task)
        ~task:id ~parent ()
    | None -> ());
    t
  in
  let handle time = function
    | Inject { proc; parent; tasks } ->
      let q = queues.(my_queue proc) in
      let t =
        List.fold_left
          (fun t task -> push_child q ~proc:(-1) ~parent ~at:t task)
          time tasks
      in
      decr pending_injections;
      sample t;
      makespan := Float.max !makespan t
    | Finish { proc; parent; children } ->
      (* Push the generated tasks onto this process's queue, one queue
         operation each, then account for the finished task and go look
         for more work. *)
      let q = queues.(my_queue proc) in
      let t =
        Array.fold_left
          (fun t task -> push_child q ~proc ~parent ~at:t task)
          time children
      in
      decr outstanding;
      sample t;
      makespan := Float.max !makespan t;
      Event_queue.add events ~time:t (Try_pop proc)
    | Try_pop proc ->
      if !outstanding > 0 || !pending_injections > 0 then begin
        (* Scan queues starting from our own; each probe is a queue
           operation; an empty probe is a failed pop. *)
        let rec scan k t =
          if k >= nq then begin
            (* Nothing anywhere: poll again shortly. *)
            Event_queue.add events ~time:(t +. cost.Cost.poll_us) (Try_pop proc)
          end
          else begin
            let q = queues.((my_queue proc + k) mod nq) in
            let t = queue_access q ~proc ~at:t in
            (if k > 0 then incr steal_attempts);
            match Vec.pop q.items with
            | None ->
              incr failed_pops;
              (match tracer with
              | Some tr ->
                Trace.emit tr Trace.Queue_failed_pop ~t_us:t ~proc ()
              | None -> ());
              scan (k + 1) t
            | Some (id, parent, push_t, task) ->
              incr pops;
              (if k > 0 then incr steals);
              (* dwell is virtual: pop time minus push time *)
              Telemetry.record_dwell_us Telemetry.global (t -. push_t);
              let node = Task.node task in
              (match tracer with
              | Some tr ->
                (if k = 0 then Trace.emit tr Trace.Queue_pop ~t_us:t ~proc ~task:id ()
                 else
                   (* steal provenance: the victim queue index rides in
                      the node field (see Trace.mli) *)
                   Trace.emit tr Trace.Queue_steal ~t_us:t ~proc
                     ~node:((my_queue proc + k) mod nq)
                     ~task:id ());
                Trace.emit tr Trace.Task_start ~t_us:t ~proc ~node ~task:id
                  ~parent ()
              | None -> ());
              let o = Runtime.exec net task in
              incr tasks_done;
              scanned := !scanned + o.Runtime.scanned;
              let nkids = Array.length o.Runtime.children in
              emitted := !emitted + nkids;
              let c = Cost.task_cost cost o in
              Telemetry.record_task_us Telemetry.global c;
              serial_us := !serial_us +. c;
              (match tracer with
              | Some tr ->
                Trace.emit tr Trace.Task_end ~t_us:(t +. c) ~proc ~node
                  ~task:id ~parent ~dur_us:c ~scanned:o.Runtime.scanned
                  ~emitted:nkids ();
                Trace_emit.mem_access tr ~t_us:(t +. c) ~proc ~task:id o
              | None -> ());
              (* asynchronous elaboration: fire newly added
                 instantiations now; their wme changes are injected by
                 the control process after the firing cost *)
              (match on_inst with
              | None -> ()
              | Some fire ->
                List.iter
                  (fun (flag, inst) ->
                    match flag with
                    | Task.Add ->
                      let changes = fire inst in
                      let injected =
                        List.concat_map
                          (fun (f, w) ->
                            let tasks, acts = Runtime.seed_wme_change net f w in
                            alpha := !alpha + acts;
                            tasks)
                          changes
                      in
                      serial_us := !serial_us +. cost.Cost.fire_us;
                      if injected <> [] then begin
                        incr pending_injections;
                        Event_queue.add events
                          ~time:(t +. c +. cost.Cost.fire_us)
                          (Inject { proc; parent = id; tasks = injected })
                      end
                    | Task.Delete -> ())
                  o.Runtime.insts);
              sample t;
              Event_queue.add events ~time:(t +. c)
                (Finish { proc; parent = id; children = o.Runtime.children })
          end
        in
        scan 0 time
      end
    (* outstanding = 0: the cycle is over; the process stops. *)
  in
  let rec loop () =
    match Event_queue.pop events with
    | None -> ()
    | Some (time, ev) ->
      handle time ev;
      loop ()
  in
  loop ();
  sample !makespan;
  let tm = Telemetry.global in
  Telemetry.add_queue_pushes tm !next_id;
  Telemetry.add_queue_pops tm !pops;
  Telemetry.add_steal_attempts tm !steal_attempts;
  Telemetry.add_steals tm !steals;
  {
    Cycle.tasks = !tasks_done;
    alpha_activations = !alpha;
    serial_us = !serial_us;
    makespan_us = !makespan;
    queue_spins = !spins;
    failed_pops = !failed_pops;
    scanned = !scanned;
    emitted = !emitted;
    wall_ns = Clock.now_ns () - t0;
    trace = Vec.to_array trace;
  }

let run_tasks ?cost ?tracer config net seed =
  run_tasks_gen ?cost ?tracer ?on_inst:None config net seed

let seed_all net changes =
  let alpha = ref 0 in
  let tasks =
    List.concat_map
      (fun (flag, w) ->
        let tasks, acts = Runtime.seed_wme_change net flag w in
        alpha := !alpha + acts;
        tasks)
      changes
  in
  (tasks, !alpha)

let finish_stats cost stats extra_alpha =
  let alpha = stats.Cycle.alpha_activations + extra_alpha in
  let alpha_us = cost.Cost.alpha_act_us *. float_of_int extra_alpha in
  (* The control process performs the buffered wme changes before the
     match starts (the paper's corrected discipline); charge that
     constant-test pass to both the serial and the parallel time. *)
  {
    stats with
    Cycle.alpha_activations = alpha;
    serial_us = stats.Cycle.serial_us +. alpha_us;
    makespan_us = stats.Cycle.makespan_us +. alpha_us;
  }

let run_changes ?(cost = Cost.default) ?tracer config net changes =
  let seed, alpha = seed_all net changes in
  finish_stats cost (run_tasks ~cost ?tracer config net seed) alpha

let run_changes_async ?(cost = Cost.default) ?tracer config net ~on_inst changes =
  let seed, alpha = seed_all net changes in
  finish_stats cost (run_tasks_gen ~cost ?tracer ~on_inst config net seed) alpha
