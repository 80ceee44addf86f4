(* The four benchmark workloads.

   An operation is one fresh agent from the task's [make], one
   [Agent.run], and a check of the run's output that shares no code with
   the matcher. Operations come in passes: every pass of a run does the
   same work (its order may differ), so passes can be compared with one
   another and the timed loop only stops at a pass boundary. *)

open Psme_support
open Psme_soar
open Psme_workloads

type op = {
  label : string;
  make : Agent.config -> Agent.t;
  check : Agent.t -> Agent.run_summary -> (unit, string) result;
}

type t = {
  name : string;
  learning : bool;
  pass_len : int;  (** operations per pass *)
  op : seed:int -> int -> op;
      (** [op ~seed k]: the k-th operation; [k = 0] is the untimed
          warm-up, pass [p >= 0] is [k = p * pass_len + 1 ..
          (p + 1) * pass_len] *)
  canonical : op;
      (** the task's reference instance: the sim and traced passes run it *)
}

let ok_if cond msg = if cond then Ok () else Error msg

(* A fixed suite of inputs: each pass runs every member once, in an
   order drawn from the seed; the warm-up runs one member. Inputs drawn
   afresh from the seed made the metrics depend on the seed far more
   than on the code (README, "Findings"). *)
let suite_member ~seed suite k =
  let n = Array.length suite in
  if k = 0 then suite.(((seed mod n) + n) mod n)
  else begin
    let order = Array.copy suite in
    Rng.shuffle (Rng.create ((seed * 7919) + ((k - 1) / n))) order;
    order.((k - 1) mod n)
  end

(* --- eight-puzzle ----------------------------------------------------- *)

(* Boards from scramble seeds at 8 random moves: six that the greedy
   solver finishes in 13..24 decisions and three where its search
   wanders for 88..133 decisions while chunks pile up and per-decision
   cost grows. Seeds in 101..130 whose boards need 149..397 decisions
   (up to 5.6 s) are left out, so a pass stays near 1.5 s. *)
let puzzle_boards = [| 101; 102; 104; 105; 106; 107; 110; 119; 123 |]

let puzzle_op label instance =
  {
    label;
    make = (fun config -> Eight_puzzle.make_agent ~config ~instance ());
    check = (fun agent _ -> ok_if (Eight_puzzle.solved agent) "board not solved");
  }

(* Small cycles where act, decide and chunking dominate and run lengths
   vary tenfold: a match-only gain should barely move it. *)
let eight_puzzle =
  {
    name = "eight-puzzle-learn";
    learning = true;
    pass_len = Array.length puzzle_boards;
    op =
      (fun ~seed k ->
        let board = suite_member ~seed puzzle_boards k in
        puzzle_op (Printf.sprintf "board-%d" board)
          (Eight_puzzle.scrambled ~seed:board ~moves:8));
    canonical =
      puzzle_op "canonical" (Eight_puzzle.scrambled ~seed:14 ~moves:10);
  }

(* --- strips ------------------------------------------------------------ *)

let index_of x l =
  let rec go i = function
    | [] -> None
    | y :: rest -> if String.equal x y then Some i else go (i + 1) rest
  in
  go 0 l

let strips_op =
  {
    label = "default-layout";
    make = (fun config -> Strips.workload.Workload.make ~config ());
    check =
      (fun agent s ->
        match
          ( index_of "open-door d45" s.Agent.output,
            index_of "push-thru box1 d45" s.Agent.output )
        with
        | _ when not (Strips.solved agent) -> Error "goal box not in goal room"
        | Some o, Some p when o < p -> Ok ()
        | _ -> Error "box pushed through d45 before the door was opened");
  }

(* The Fig 6-7 40+-CE long-chain monitor production: match-dominated,
   and queue-bound at 8 modeled processes. *)
let strips =
  {
    name = "strips-learn";
    learning = true;
    pass_len = 16;
    op = (fun ~seed:_ _ -> strips_op);
    canonical = strips_op;
  }

(* --- cypress ----------------------------------------------------------- *)

let cypress_op =
  {
    label = "derive-sort";
    make = (fun config -> Cypress.workload.Workload.make ~config ());
    check =
      (fun agent s ->
        let derived = Cypress.derivation agent in
        let missing =
          List.filter (fun step -> not (List.mem step derived)) Cypress.preferred
        in
        let chunks = List.length s.Agent.chunks in
        let ces = List.fold_left (fun a c -> a + c.Agent.ci_ces) 0 s.Agent.chunks in
        if missing <> [] then
          Error (Printf.sprintf "%d preferred steps missing" (List.length missing))
        else ok_if (chunks > 0 && ces >= 30 * chunks) "chunks average < 30 CEs");
  }

(* Long dependent join chains and ~46-CE chunks: beta, memory and
   chunk-compile work dominate. *)
let cypress =
  {
    name = "cypress-learn";
    learning = true;
    pass_len = 4;
    op = (fun ~seed:_ _ -> cypress_op);
    canonical = cypress_op;
  }

(* --- io-stream ---------------------------------------------------------- *)

(* Alert count recomputed from the input stream alone: replays the
   generator's draws (channel-major, [rate] per channel per tick) and
   applies the classification and correlation rules by hand. Each rule
   instantiation fires once, so correlations count reading pairs and
   storms count (spike, correlation) pairs within a tick. *)
let io_expected_alerts (p : Io_stream.params) =
  let rng = Rng.create p.Io_stream.seed in
  let total = ref 0 in
  for _tick = 0 to p.Io_stream.ticks - 1 do
    let above75 = Array.make p.Io_stream.channels 0 in
    let spikes = ref 0 in
    for k = 0 to p.Io_stream.channels - 1 do
      let hi = 60 + (5 * (k mod 5)) and lo = 15 + (3 * (k mod 4)) in
      for _ = 1 to p.Io_stream.rate do
        let v = Rng.int rng 100 in
        if v > hi then incr total;
        if v < lo then incr total;
        if v > 93 then incr spikes;
        if v > 75 then above75.(k) <- above75.(k) + 1
      done
    done;
    let correlated = ref 0 in
    for k = 0 to p.Io_stream.channels - 2 do
      correlated := !correlated + (above75.(k) * above75.(k + 1))
    done;
    total := !total + !spikes + !correlated + (!spikes * !correlated)
  done;
  !total

let io_params ~ticks seed = { Io_stream.channels = 6; rate = 4; ticks; seed }

(* generator seeds of the four reading streams: few enough that each
   repeats in every run, so its median time is well estimated *)
let io_streams = [| 1; 2; 3; 4 |]

let io_op p =
  {
    label = Printf.sprintf "readings-%d" p.Io_stream.seed;
    make = (fun config -> Io_stream.make_agent ~config ~params:p ());
    check =
      (fun agent _ ->
        let got = Io_stream.alerts agent and want = io_expected_alerts p in
        ok_if (got = want) (Printf.sprintf "%d alerts, oracle says %d" got want));
  }

(* Input-driven and write-heavy: 24 readings per decision into a working
   memory that only grows, and no chunking, so chunk-layer changes should
   not move it. *)
let io_stream =
  {
    name = "io-stream";
    learning = false;
    pass_len = Array.length io_streams;
    op = (fun ~seed k -> io_op (io_params ~ticks:25 (suite_member ~seed io_streams k)));
    canonical = io_op (io_params ~ticks:25 7);
  }

let all = [ eight_puzzle; strips; cypress; io_stream ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
