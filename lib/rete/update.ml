open Psme_support
open Psme_ops5

(* An alpha memory that feeds the batch: its canonical test chain and its
   successors at or above the watermark, in registration order. *)
type feed = { tests : Alpha.atest list; succs : int array }

let rec passes w = function
  | [] -> true
  | test :: rest -> Alpha.atest_holds test w && passes w rest

let feed alpha ~first_new amem =
  let _, tests = Option.get (Alpha.chain_of alpha ~amem) in
  let succs = Alpha.successors alpha ~amem |> List.filter (fun n -> n >= first_new) in
  { tests; succs = Array.of_list succs }

(* The memories feeding the batch's new nodes, grouped by class, each
   group in the order the alpha walk visits them. *)
let feeds net ~first_new ~new_nodes =
  let alpha = net.Network.alpha in
  List.filter_map (fun nid -> (Network.node net nid).Network.alpha_src) new_nodes
  |> Alpha.in_walk_order alpha
  |> List.map (fun (cls, amems) ->
         (cls, Array.of_list (List.map (feed alpha ~first_new) amems)))

let rec feeds_of cls = function
  | [] -> [||]
  | (c, fs) :: rest -> if Sym.equal c cls then fs else feeds_of cls rest

let batch_tasks net wm ~first_new ~new_nodes =
  if new_nodes = [] then []
  else begin
    let tasks = ref [] in
    (* Replay: "specially execute" each pre-batch node that feeds a new
       node, delivering its stored output to that new successor only. *)
    List.iter
      (fun nid ->
        let n = Network.node net nid in
        match n.Network.parent with
        | Some pid when pid < first_new ->
          let parent = Network.node net pid in
          let port =
            match
              List.find_opt (fun (i, _) -> i = nid) (Network.successors parent)
            with
            | Some (_, p) -> p
            | None -> Network.P_left
          in
          tasks :=
            List.rev_append
              (Program.replay_parent net ~parent ~child:nid ~port)
              !tasks
        | Some _ | None -> ())
      new_nodes;
    (* Working memory, delivered only to new nodes: each wme is tested
       against the chains of the memories feeding them, in the order the
       alpha walk would reach those memories. The walk over [wm] fixes
       the task order. *)
    let by_class = feeds net ~first_new ~new_nodes in
    Wm.iter
      (fun w ->
        let fs = feeds_of w.Wme.cls by_class in
        for i = 0 to Array.length fs - 1 do
          let f = fs.(i) in
          if passes w f.tests then
            for j = 0 to Array.length f.succs - 1 do
              tasks := Task.Right { node = f.succs.(j); flag = Task.Add; wme = w } :: !tasks
            done
        done)
      wm;
    List.rev !tasks
  end

let update_tasks net wm (res : Build.add_result) =
  batch_tasks net wm ~first_new:res.Build.first_new_id
    ~new_nodes:res.Build.new_beta_nodes

let update_tasks_batch net wm results =
  match results with
  | [] -> []
  | _ ->
    let first_new =
      List.fold_left (fun a r -> min a r.Build.first_new_id) max_int results
    in
    let new_nodes = List.concat_map (fun r -> r.Build.new_beta_nodes) results in
    batch_tasks net wm ~first_new ~new_nodes
