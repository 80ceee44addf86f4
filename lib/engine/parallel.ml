open Psme_support
open Psme_obs
open Psme_rete

type queue_mode =
  | Single_queue
  | Multiple_queues

type config = {
  processes : int;
  queues : queue_mode;
}

(* Queue items carry (id, parent, push_ns, task): id/parent for the
   tracer's spawn DAG (ids come from one atomic counter, so a parent's
   id is below its children's), push_ns so the popper can record queue
   dwell time into the telemetry layer. *)
type item = int * int * int * Task.t

(* Multiple_queues uses one Chase–Lev deque per worker: the owner
   pushes/pops its own deque lock-free and thieves CAS-steal the oldest
   task. Single_queue must keep a mutex queue — every worker pushes
   children into the one shared queue, which violates the deque's
   single-owner contract. *)
type queues =
  | Shared of shared
  | Deques of item Ws_deque.t array

and shared = {
  lock : Mutex.t;
  items : item Vec.t;
}

let shared_try_pop q =
  if Mutex.try_lock q.lock then begin
    let item = Vec.pop q.items in
    Mutex.unlock q.lock;
    item
  end
  else None

let run_tasks ?(cost = Cost.default) ?tracer config net seed =
  if config.processes < 1 then invalid_arg "Parallel: processes must be at least 1";
  let t0 = Clock.now_ns () in
  let now_us () = float_of_int (Clock.now_ns () - t0) /. 1e3 in
  let nq = match config.queues with Single_queue -> 1 | Multiple_queues -> config.processes in
  let queues =
    match config.queues with
    | Single_queue -> Shared { lock = Mutex.create (); items = Vec.create () }
    | Multiple_queues -> Deques (Array.init nq (fun _ -> Ws_deque.create ()))
  in
  (* outstanding = queued + currently executing; the cycle ends at 0. *)
  let outstanding = Atomic.make 0 in
  let tasks_done = Atomic.make 0 in
  let scanned = Atomic.make 0 in
  let emitted = Atomic.make 0 in
  let failed_pops = Atomic.make 0 in
  let serial_us_bits = Atomic.make 0 in
  (* accumulate µs as integer tenths to stay atomic *)
  let next_id = Atomic.make 0 in
  (* Per-worker latency histograms, merged into the global telemetry
     after join — exact counts without racing the single-writer
     histograms from many domains. *)
  let nproc = config.processes in
  let task_h = Array.init nproc (fun _ -> Loghist.create ()) in
  let dwell_h = Array.init nproc (fun _ -> Loghist.create ()) in
  (* Seeding happens before the workers spawn, so pushing into a
     worker's deque from here cannot race its owner. *)
  let seed_push qi item =
    match queues with
    | Shared q -> Mutex.protect q.lock (fun () -> Vec.push q.items item)
    | Deques ds -> Ws_deque.push ds.(qi) item
  in
  List.iteri
    (fun i task ->
      Atomic.incr outstanding;
      let id = Atomic.fetch_and_add next_id 1 in
      seed_push (i mod nq) (id, -1, Clock.now_ns (), task);
      match tracer with
      | Some tr ->
        Trace.emit tr Trace.Queue_push ~t_us:(now_us ()) ~proc:(-1)
          ~node:(Task.node task) ~task:id ()
      | None -> ())
    seed;
  let worker me () =
    let my_q = me mod nq in
    (* probe queue (my_q + k) mod nq: own pop at k = 0, steal after *)
    let probe k =
      match queues with
      | Shared q -> shared_try_pop q
      | Deques ds ->
        if k = 0 then Ws_deque.pop ds.(my_q)
        else Ws_deque.steal ~thief:me ds.((my_q + k) mod nq)
    in
    let push_child item =
      match queues with
      | Shared q -> Mutex.protect q.lock (fun () -> Vec.push q.items item)
      | Deques ds -> Ws_deque.push ds.(my_q) item
    in
    let rec loop () =
      if Atomic.get outstanding = 0 then ()
      else begin
        let item =
          let rec scan k =
            if k >= nq then None
            else
              match probe k with
              | Some (id, parent, push_ns, task) ->
                Loghist.add dwell_h.(me) (Clock.now_ns () - push_ns);
                (match tracer with
                | Some tr ->
                  (if k = 0 then
                     Trace.emit tr Trace.Queue_pop ~t_us:(now_us ()) ~proc:me
                       ~task:id ()
                   else
                     (* steal provenance: the victim queue index rides
                        in the node field (see Trace.mli) *)
                     Trace.emit tr Trace.Queue_steal ~t_us:(now_us ()) ~proc:me
                       ~node:((my_q + k) mod nq)
                       ~task:id ())
                | None -> ());
                Some (id, parent, task)
              | None ->
                Atomic.incr failed_pops;
                (match tracer with
                | Some tr ->
                  Trace.emit tr Trace.Queue_failed_pop ~t_us:(now_us ())
                    ~proc:me ()
                | None -> ());
                scan (k + 1)
          in
          scan 0
        in
        (match item with
        | None -> Domain.cpu_relax ()
        | Some (id, parent, task) ->
          let node = Task.node task in
          let start_us = now_us () in
          (match tracer with
          | Some tr ->
            Trace.emit tr Trace.Task_start ~t_us:start_us ~proc:me ~node
              ~task:id ~parent ()
          | None -> ());
          let exec_t0 = Clock.now_ns () in
          let o = Runtime.exec net task in
          Loghist.add task_h.(me) (Clock.now_ns () - exec_t0);
          Atomic.incr tasks_done;
          ignore (Atomic.fetch_and_add scanned o.Runtime.scanned);
          let kids = o.Runtime.children in
          let nkids = Array.length kids in
          ignore (Atomic.fetch_and_add emitted nkids);
          ignore
            (Atomic.fetch_and_add serial_us_bits
               (int_of_float (10. *. Cost.task_cost cost o)));
          ignore (Atomic.fetch_and_add outstanding nkids);
          (match tracer with
          | Some tr ->
            let end_us = now_us () in
            (* real engine: the span is the measured wall time *)
            Trace.emit tr Trace.Task_end ~t_us:end_us ~proc:me ~node ~task:id
              ~parent
              ~dur_us:(Float.max 0.001 (end_us -. start_us))
              ~scanned:o.Runtime.scanned ~emitted:nkids ();
            Trace_emit.mem_access tr ~t_us:end_us ~proc:me ~task:id o
          | None -> ());
          Array.iter
            (fun k ->
              let kid = Atomic.fetch_and_add next_id 1 in
              push_child (kid, id, Clock.now_ns (), k);
              match tracer with
              | Some tr ->
                Trace.emit tr Trace.Queue_push ~t_us:(now_us ()) ~proc:me
                  ~node:(Task.node k) ~task:kid ~parent:id ()
              | None -> ())
            kids;
          Atomic.decr outstanding);
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init nproc (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  let wall_ns = Clock.now_ns () - t0 in
  (* fold per-worker histograms and queue contention into the global
     telemetry; workers are joined, so the reads are exact *)
  let tm = Telemetry.global in
  Array.iter (fun h -> Loghist.merge_into ~into:(Telemetry.task_hist tm) h) task_h;
  Array.iter (fun h -> Loghist.merge_into ~into:(Telemetry.dwell_hist tm) h) dwell_h;
  (match queues with
  | Shared _ ->
    (* one mutex queue: every push/pop goes through it *)
    Telemetry.add_queue_pushes tm (Atomic.get next_id);
    Telemetry.add_queue_pops tm (Atomic.get tasks_done)
  | Deques ds ->
    Array.iter
      (fun d ->
        let s = Ws_deque.stats d in
        Telemetry.add_queue_pushes tm s.Ws_deque.pushes;
        Telemetry.add_queue_pops tm s.Ws_deque.pops;
        Telemetry.add_pop_races tm s.Ws_deque.pop_races;
        Telemetry.add_steal_attempts tm s.Ws_deque.steal_attempts;
        Telemetry.add_steals tm s.Ws_deque.steals;
        Telemetry.add_steal_cas_failures tm s.Ws_deque.steal_cas_failures)
      ds);
  {
    Cycle.empty with
    tasks = Atomic.get tasks_done;
    serial_us = float_of_int (Atomic.get serial_us_bits) /. 10.;
    makespan_us = float_of_int wall_ns /. 1000.;
    failed_pops = Atomic.get failed_pops;
    scanned = Atomic.get scanned;
    emitted = Atomic.get emitted;
    wall_ns;
  }

let run_changes ?(cost = Cost.default) ?tracer config net changes =
  let alpha = ref 0 in
  let seed =
    List.concat_map
      (fun (flag, w) ->
        let tasks, acts = Runtime.seed_wme_change net flag w in
        alpha := !alpha + acts;
        tasks)
      changes
  in
  let stats = run_tasks ~cost ?tracer config net seed in
  { stats with Cycle.alpha_activations = !alpha }
