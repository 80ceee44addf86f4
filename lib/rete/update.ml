open Psme_ops5

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
    (* The whole working memory through the constant-test network,
       delivered only to new nodes. *)
    Wm.iter
      (fun w ->
        let seeded, _ = Runtime.seed_wme_change ~min_node_id:first_new net Task.Add w in
        tasks := List.rev_append seeded !tasks)
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
