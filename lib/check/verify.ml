open Psme_support
open Psme_ops5
open Psme_rete
open Network

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let node_name id = Printf.sprintf "node %d" id

let structure (net : Network.t) =
  let fs = ref [] in
  let err rule subject detail = fs := Finding.error ~rule ~subject detail :: !fs in
  let warn rule subject detail =
    fs := Finding.warning ~rule ~subject detail :: !fs
  in
  let checked = ref 0 in
  let max_id = ref (-1) in
  iter_nodes net (fun n ->
      incr checked;
      if n.id > !max_id then max_id := n.id;
      (* parent link *)
      (match n.parent with
      | None -> ()
      | Some p -> (
        match node_opt net p with
        | None ->
          err "missing-parent" (node_name n.id)
            (Printf.sprintf "parent %d does not exist" p)
        | Some pn ->
          if p >= n.id then
            err "id-order" (node_name n.id)
              (Printf.sprintf
                 "parent %d does not have a smaller id (the §5.2 monotone-ID \
                  invariant)"
                 p);
          if not (List.exists (fun (sid, _) -> sid = n.id) (successors pn)) then
            err "parent-link" (node_name n.id)
              (Printf.sprintf "parent %d does not list it as a successor" p)));
      (* successor edges *)
      List.iter
        (fun (sid, port) ->
          match node_opt net sid with
          | None ->
            err "succ-dangling" (node_name n.id)
              (Printf.sprintf "successor %d does not exist" sid)
          | Some child -> (
            if sid <= n.id then
              err "id-order" (node_name n.id)
                (Printf.sprintf "successor %d does not have a larger id" sid);
            match port with
            | P_left ->
              if child.parent <> Some n.id then
                err "parent-link" (node_name sid)
                  (Printf.sprintf
                     "receives a left edge from %d but does not name it as \
                      parent"
                     n.id)
            | P_right -> (
              match child.kind with
              | Ncc_partner _ ->
                if child.parent <> Some n.id then
                  err "parent-link" (node_name sid)
                    (Printf.sprintf
                       "NCC partner fed from %d but does not name it as parent"
                       n.id)
              | Bjoin _ -> ()
              | Entry | Join _ | Neg _ | Ncc _ | Pnode _ ->
                err "kind-wiring" (node_name sid)
                  "receives a right token edge but is neither an NCC partner \
                   nor a binary join")))
        (successors n);
      (* kind/wiring agreement *)
      (match n.kind with
      | Entry ->
        if n.parent <> None then
          err "kind-wiring" (node_name n.id) "entry node has a parent";
        if n.alpha_src = None then
          err "kind-wiring" (node_name n.id) "entry node has no alpha feed"
      | Join _ | Neg _ ->
        if n.parent = None then
          err "kind-wiring" (node_name n.id) "two-input node has no parent";
        if n.alpha_src = None then
          err "kind-wiring" (node_name n.id) "two-input node has no alpha feed"
      | Ncc _ | Bjoin _ | Pnode _ ->
        if n.parent = None then
          err "kind-wiring" (node_name n.id) "token node has no parent";
        if n.alpha_src <> None then
          err "kind-wiring" (node_name n.id) "token-only node has an alpha feed"
      | Ncc_partner { ncc; prefix_len } -> (
        if n.parent = None then
          err "kind-wiring" (node_name n.id) "NCC partner has no parent";
        if n.alpha_src <> None then
          err "kind-wiring" (node_name n.id) "NCC partner has an alpha feed";
        match node_opt net ncc with
        | None ->
          err "kind-wiring" (node_name n.id)
            (Printf.sprintf "names missing NCC node %d" ncc)
        | Some m -> (
          if ncc >= n.id then
            err "id-order" (node_name n.id)
              (Printf.sprintf "NCC node %d was not created before its partner"
                 ncc);
          match m.kind with
          | Ncc { prefix_len = pl } ->
            if pl <> prefix_len then
              err "kind-wiring" (node_name n.id)
                (Printf.sprintf "prefix length %d disagrees with NCC's %d"
                   prefix_len pl)
          | _ ->
            err "kind-wiring" (node_name n.id)
              (Printf.sprintf "node %d is not an NCC node" ncc))));
      match n.kind with
      | Pnode _ | Ncc_partner _ ->
        if successors n <> [] then
          err "kind-wiring" (node_name n.id) "terminal node has successors"
      | _ -> ());
  (* the jumptable is the only dispatch path: a live node with no
     program would absorb its tasks silently, and a slot that outlives
     its node is stale code *)
  let with_program = ref 0 in
  iter_nodes net (fun n ->
      if Program.find net n.id = None then
        err "jumptable" (node_name n.id) "live node has no compiled program"
      else incr with_program);
  let stale = Program.compiled_count net - !with_program in
  if stale > 0 then
    err "jumptable" "network"
      (Printf.sprintf "%d program slot(s) outlive their nodes" stale);
  (* alpha feeds, both directions *)
  iter_nodes net (fun n ->
      match n.alpha_src with
      | None -> ()
      | Some a ->
        if not (Alpha.amem_exists net.alpha a) then
          err "alpha-unregistered" (node_name n.id)
            (Printf.sprintf "names missing alpha memory %d" a)
        else begin
          if a >= n.id then
            err "id-order" (node_name n.id)
              (Printf.sprintf "alpha memory %d does not have a smaller id" a);
          if not (List.mem n.id (Alpha.successors net.alpha ~amem:a)) then
            err "alpha-unregistered" (node_name n.id)
              (Printf.sprintf "not registered under its alpha memory %d" a)
        end);
  List.iter
    (fun a ->
      List.iter
        (fun sid ->
          match node_opt net sid with
          | None ->
            err "succ-dangling"
              (Printf.sprintf "amem %d" a)
              (Printf.sprintf "successor %d does not exist" sid)
          | Some sn ->
            if sn.alpha_src <> Some a then
              err "alpha-unregistered" (node_name sid)
                (Printf.sprintf
                   "registered under alpha memory %d but does not name it" a))
        (Alpha.successors net.alpha ~amem:a))
    (Alpha.amems net.alpha);
  (* explicit acyclicity (edge monotonicity already implies it) *)
  let color = Hashtbl.create 97 in
  let cyclic = ref false in
  let rec dfs id =
    match Hashtbl.find_opt color id with
    | Some 1 -> cyclic := true
    | Some _ -> ()
    | None ->
      Hashtbl.replace color id 1;
      (match node_opt net id with
      | None -> ()
      | Some n -> List.iter (fun (sid, _) -> dfs sid) (successors n));
      Hashtbl.replace color id 2
  in
  iter_nodes net (fun n -> dfs n.id);
  if !cyclic then err "cycle" "network" "successor graph contains a cycle";
  (* every P-node reachable from an entry node *)
  let fwd = Hashtbl.create 97 in
  let rec reach id =
    if not (Hashtbl.mem fwd id) then begin
      Hashtbl.replace fwd id ();
      match node_opt net id with
      | None -> ()
      | Some n ->
        List.iter (fun (sid, _) -> reach sid) (successors n);
        (match n.kind with Ncc_partner { ncc; _ } -> reach ncc | _ -> ())
    end
  in
  iter_nodes net (fun n -> if n.kind = Entry then reach n.id);
  List.iter
    (fun pm ->
      let pname = Sym.name pm.meta_production.Production.name in
      if not (Hashtbl.mem fwd pm.pnode) then
        err "unreachable-pnode" pname
          (Printf.sprintf "P-node %d is not reachable from any entry node"
             pm.pnode);
      (match node_opt net pm.pnode with
      | None -> err "pmeta" pname "P-node does not exist"
      | Some pn -> (
        match pn.kind with
        | Pnode pi ->
          if not (Sym.equal pi.production.Production.name
                    pm.meta_production.Production.name)
          then err "pmeta" pname "P-node names a different production"
        | _ -> err "pmeta" pname "pnode is not a P-node"));
      List.iter
        (fun cid ->
          if node_opt net cid = None then
            err "pmeta" pname (Printf.sprintf "chain node %d does not exist" cid))
        pm.chain)
    (productions net);
  (* every node feeds some P-node (no orphans after add/excise) *)
  let rev : (int, int list) Hashtbl.t = Hashtbl.create 97 in
  let add_rev ~src ~dst =
    Hashtbl.replace rev dst
      (src :: Option.value ~default:[] (Hashtbl.find_opt rev dst))
  in
  iter_nodes net (fun n ->
      List.iter (fun (sid, _) -> add_rev ~src:n.id ~dst:sid) (successors n);
      match n.kind with
      | Ncc_partner { ncc; _ } -> add_rev ~src:n.id ~dst:ncc
      | _ -> ());
  let back = Hashtbl.create 97 in
  let rec reach_back id =
    if not (Hashtbl.mem back id) then begin
      Hashtbl.replace back id ();
      List.iter reach_back (Option.value ~default:[] (Hashtbl.find_opt rev id))
    end
  in
  iter_nodes net (fun n ->
      match n.kind with Pnode _ -> reach_back n.id | _ -> ());
  iter_nodes net (fun n ->
      if not (Hashtbl.mem back n.id) then
        err "orphan-node" (node_name n.id) "feeds no production node");
  (* the single monotone counter is ahead of every allocated id *)
  if next_id net <= !max_id then
    err "counter" "network"
      (Printf.sprintf "next id %d is not beyond the largest node id %d"
         (next_id net) !max_id);
  (* structurally identical siblings defeat sharing *)
  if net.config.share then begin
    let by_parent : (int, node list) Hashtbl.t = Hashtbl.create 97 in
    iter_nodes net (fun n ->
        match (n.parent, n.kind) with
        | Some p, (Join _ | Neg _ | Bjoin _) ->
          Hashtbl.replace by_parent p
            (n :: Option.value ~default:[] (Hashtbl.find_opt by_parent p))
        | _ -> ());
    Hashtbl.iter
      (fun p kids ->
        let rec pairs = function
          | [] -> ()
          | k :: rest ->
            List.iter
              (fun k2 ->
                if k.kind = k2.kind && k.alpha_src = k2.alpha_src then
                  warn "share-missed" (node_name k2.id)
                    (Printf.sprintf
                       "structurally identical to sibling %d under parent %d \
                        despite sharing being enabled"
                       k.id p))
              rest;
            pairs rest
        in
        pairs kids)
      by_parent
  end;
  Finding.report ~checked:!checked (List.rev !fs)

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let token_tags tok =
  Array.to_list (Array.map (fun w -> w.Wme.timetag) (Token.wmes tok))

let tags_str tags = String.concat "," (List.map string_of_int tags)

let payload_tags = function
  | Memory.R_wme w -> (0, [ w.Wme.timetag ])
  | Memory.R_tok t -> (1, token_tags t)

type lrec = { mutable refs : int; mutable lcount : int; mutable n : int }

let left_map (net : Network.t) =
  let tbl : (int * int * int list, lrec) Hashtbl.t = Hashtbl.create 256 in
  Memory.fold_left_entries net.mem ~init:() ~f:(fun () ~node ~khash e ->
      let key = (node, khash, token_tags e.Memory.l_token) in
      match Hashtbl.find_opt tbl key with
      | Some r ->
        r.refs <- r.refs + e.Memory.l_refs;
        r.n <- r.n + 1
      | None ->
        Hashtbl.replace tbl key
          { refs = e.Memory.l_refs; lcount = e.Memory.l_count; n = 1 });
  tbl

let right_map (net : Network.t) =
  let tbl : (int * int * (int * int list), lrec) Hashtbl.t =
    Hashtbl.create 256
  in
  Memory.fold_right_entries net.mem ~init:() ~f:(fun () ~node ~khash ~refs p ->
      let key = (node, khash, payload_tags p) in
      match Hashtbl.find_opt tbl key with
      | Some r ->
        r.refs <- r.refs + refs;
        r.n <- r.n + 1
      | None -> Hashtbl.replace tbl key { refs; lcount = 0; n = 1 });
  tbl

let cs_fingerprint (net : Network.t) =
  Conflict_set.to_list net.cs
  |> List.map (fun i ->
         (Sym.name i.Conflict_set.prod, token_tags i.Conflict_set.token))
  |> List.sort compare

let state (net : Network.t) wmes =
  let fs = ref [] in
  let err rule subject detail = fs := Finding.error ~rule ~subject detail :: !fs in
  let checked = ref 0 in
  let prods = List.map (fun pm -> pm.meta_production) (productions net) in
  let net2 = Network.create ~config:net.config net.schema in
  match
    List.iter (fun p -> ignore (Build.add_production net2 p)) prods;
    ()
  with
  | exception e ->
    Finding.report
      [
        Finding.warning ~rule:"rebuild-mismatch" ~subject:"network"
          (Printf.sprintf "serial rebuild failed (%s); state check skipped"
             (Printexc.to_string e));
      ]
  | () ->
    let ids n = List.sort compare (fold_nodes n ~init:[] ~f:(fun acc x -> x.id :: acc)) in
    if ids net <> ids net2 then
      Finding.report
        [
          Finding.warning ~rule:"rebuild-mismatch" ~subject:"network"
            "rebuilding the production sequence yields different node ids \
             (a production was excised?); state check skipped";
        ]
    else begin
      ignore
        (Psme_engine.Serial.run_changes net2
           (List.map (fun w -> (Task.Add, w)) wmes));
      let describe_left (node, _kh, tags) =
        Printf.sprintf "node %d token [%s]" node (tags_str tags)
      in
      let describe_right (node, _kh, (_, tags)) =
        Printf.sprintf "node %d payload [%s]" node (tags_str tags)
      in
      let diff describe ~neg orig rebuilt =
        Hashtbl.iter
          (fun key (r : lrec) ->
            incr checked;
            if r.n > 1 then
              err "duplicate-entry" (describe key)
                (Printf.sprintf "%d memory entries for one key" r.n);
            match Hashtbl.find_opt rebuilt key with
            | None ->
              if r.refs > 0 then
                err "state-extra" (describe key)
                  "present in the live memories but absent from the serial \
                   rebuild"
              else
                err "stale-tombstone" (describe key)
                  (Printf.sprintf
                     "tombstone (refs %d) survives at quiescence" r.refs)
            | Some (r2 : lrec) ->
              if r.refs <> r2.refs then
                err "state-refcount" (describe key)
                  (Printf.sprintf
                     "live refcount %d, rebuilt %d — a duplicate or missing \
                      delivery (the §5.2 node-ID filter)"
                     r.refs r2.refs);
              if neg && r.lcount <> r2.lcount then
                err "state-negcount" (describe key)
                  (Printf.sprintf "live negative-join count %d, rebuilt %d"
                     r.lcount r2.lcount))
          orig;
        Hashtbl.iter
          (fun key _ ->
            if not (Hashtbl.mem orig key) then begin
              incr checked;
              err "state-missing" (describe key)
                "absent from the live memories but produced by the serial \
                 rebuild"
            end)
          rebuilt
      in
      diff describe_left ~neg:true (left_map net) (left_map net2);
      diff describe_right ~neg:false (right_map net) (right_map net2);
      let cs1 = cs_fingerprint net and cs2 = cs_fingerprint net2 in
      if cs1 <> cs2 then
        err "conflict-set-diff" "conflict set"
          (Printf.sprintf "live holds %d instantiation(s), rebuild %d — or \
                           they differ in content"
             (List.length cs1) (List.length cs2));
      Finding.report ~checked:!checked (List.rev !fs)
    end

let full net wmes = Finding.merge (structure net) (state net wmes)
