open Psme_support
open Psme_ops5

type add_result = {
  meta : Network.pmeta;
  first_new_id : int;
  new_beta_nodes : int list;
}

exception Build_error of string

let err fmt = Format.kasprintf (fun m -> raise (Build_error m)) fmt

let invert = function
  | Cond.Lt -> Cond.Gt
  | Cond.Gt -> Cond.Lt
  | Cond.Le -> Cond.Ge
  | Cond.Ge -> Cond.Le
  | (Cond.Eq | Cond.Ne) as r -> r

(* --- per-CE analysis ----------------------------------------------- *)

type ce_analysis = {
  amem : int;
  ti : Network.two_input;
  global_binds : (string * (int * int)) list;  (* binding order *)
  ce_deferred : (string * Cond.relation * int) list;  (* var, wme-side rel, field *)
}

(* Split a CE into alpha tests and beta join tests against the current
   token layout. [lookup] resolves variables already bound in the layout;
   [defer] says a variable is bound elsewhere in the production but not
   visible on this side (bilinear groups); [slot_for_binds] is the slot
   this CE's wme will occupy if the CE is positive. *)
let analyze net ~lookup ~defer ~slot_for_binds ce =
  let atests = ref [] in
  let eq = ref [] in
  let others = ref [] in
  let locals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let globals = ref [] in
  let deferred = ref [] in
  let add_var_test field rel v =
    (* semantics: wme.field REL (value of v) *)
    match Hashtbl.find_opt locals v with
    | Some f0 ->
      if not (f0 = field && rel = Cond.Eq) then
        atests := Alpha.A_same (field, rel, f0) :: !atests
    | None -> (
      match lookup v with
      | Some (slot, fld) ->
        let jt = { Network.l_slot = slot; l_fld = fld; rel = invert rel; r_fld = field } in
        if jt.Network.rel = Cond.Eq then eq := jt :: !eq else others := jt :: !others
      | None ->
        if defer v then begin
          deferred := (v, rel, field) :: !deferred;
          (* only an equality occurrence carries the other group's value:
             later tests on [v] may then compare within this wme *)
          if rel = Cond.Eq then Hashtbl.replace locals v field
        end
        else if rel = Cond.Eq then begin
          Hashtbl.replace locals v field;
          match slot_for_binds with
          | Some slot -> globals := (v, (slot, field)) :: !globals
          | None -> ()
        end
        else err "variable <%s> used in a predicate before being bound" v)
  in
  let rec handle field = function
    | Cond.T_const v -> atests := Alpha.A_const (field, v) :: !atests
    | Cond.T_disj vs -> atests := Alpha.A_disj (field, vs) :: !atests
    | Cond.T_rel (rel, Cond.Oconst c) -> atests := Alpha.A_rel (field, rel, c) :: !atests
    | Cond.T_var v -> add_var_test field Cond.Eq v
    | Cond.T_rel (rel, Cond.Ovar v) -> add_var_test field rel v
    | Cond.T_conj ts -> List.iter (handle field) ts
  in
  List.iter (fun (f, t) -> handle f t) ce.Cond.tests;
  (* Canonical orders make structurally equal CEs produce equal specs,
     which is what node sharing compares. *)
  let atests = List.sort_uniq Stdlib.compare !atests in
  let amem = Alpha.add_chain net.Network.alpha ~cls:ce.Cond.cls atests in
  {
    amem;
    ti =
      {
        Network.eq = List.sort Stdlib.compare !eq;
        others = List.sort Stdlib.compare !others;
      };
    global_binds = List.rev !globals;
    ce_deferred = List.rev !deferred;
  }

(* --- chain state ---------------------------------------------------- *)

type chain_state = {
  net : Network.t;
  binds : (string, int * int) Hashtbl.t;
  mutable bind_order_rev : (string * (int * int)) list;
  mutable cur : Network.node option;
  mutable len : int;
  mutable chain_rev : int list;
  created : int Vec.t;
  mutable defer : string -> bool;
  mutable deferred_rev : (string * Cond.relation * int * int) list;
      (* var, wme-side rel, slot, field *)
}

let fresh_state net created =
  {
    net;
    binds = Hashtbl.create 16;
    bind_order_rev = [];
    cur = None;
    len = 0;
    chain_rev = [];
    created;
    defer = (fun _ -> false);
    deferred_rev = [];
  }

let clone_state st =
  {
    st with
    binds = Hashtbl.copy st.binds;
    bind_order_rev = st.bind_order_rev;
    chain_rev = [];
  }

let share_on net = net.Network.config.Network.share

let note_created st n = Vec.push st.created n.Network.id
let note_chain st n = st.chain_rev <- n.Network.id :: st.chain_rev

let register_binds st binds =
  List.iter
    (fun (v, pos) ->
      if not (Hashtbl.mem st.binds v) then begin
        Hashtbl.replace st.binds v pos;
        st.bind_order_rev <- (v, pos) :: st.bind_order_rev
      end)
    binds

(* Find an existing successor of [parent] that is structurally the node
   we are about to create. *)
let find_shared_child net parent ~port pred =
  List.find_map
    (fun (id, p) ->
      if p = port then
        let n = Network.node net id in
        if pred n then Some n else None
      else None)
    (Network.successors parent)

let get_entry st amem =
  let net = st.net in
  let existing =
    if share_on net then
      List.find_map
        (fun id ->
          let n = Network.node net id in
          match n.Network.kind with Network.Entry -> Some n | _ -> None)
        (Alpha.successors net.Network.alpha ~amem)
    else None
  in
  match existing with
  | Some n -> n
  | None ->
    let n = Network.add_node net ~kind:Network.Entry ~parent:None ~alpha_src:(Some amem) in
    Alpha.add_successor net.Network.alpha ~amem ~node:n.Network.id;
    note_created st n;
    n

let spec_hash ~neg amem ti = Hashtbl.hash_param 64 256 (neg, amem, ti)

let get_two_input st ~neg amem ti =
  let net = st.net in
  let parent = match st.cur with Some c -> c | None -> err "two-input node with no parent" in
  let key = (parent.Network.id, spec_hash ~neg amem ti) in
  let spec_matches n =
    n.Network.alpha_src = Some amem
    &&
    match n.Network.kind, neg with
    | Network.Join ti', false -> ti' = ti
    | Network.Neg ti', true -> ti' = ti
    | _ -> false
  in
  (* The share index makes the share-point search O(1): candidates are
     verified structurally, so collisions and entries for excised nodes
     only cost a failed check. *)
  let existing =
    if share_on net then
      match Hashtbl.find_opt net.Network.share_index key with
      | None -> None
      | Some ids ->
        List.find_map
          (fun id ->
            match Hashtbl.find_opt net.Network.beta id with
            | Some n when spec_matches n -> Some n
            | _ -> None)
          ids
    else None
  in
  match existing with
  | Some n -> n
  | None ->
    let kind = if neg then Network.Neg ti else Network.Join ti in
    let n = Network.add_node net ~kind ~parent:(Some parent.Network.id) ~alpha_src:(Some amem) in
    Network.add_successor net ~of_:parent.Network.id ~node:n.Network.id ~port:Network.P_left;
    Alpha.add_successor net.Network.alpha ~amem ~node:n.Network.id;
    let prev = Option.value ~default:[] (Hashtbl.find_opt net.Network.share_index key) in
    Hashtbl.replace net.Network.share_index key (n.Network.id :: prev);
    note_created st n;
    n

let add_positive_ce st ce =
  let a =
    analyze st.net
      ~lookup:(Hashtbl.find_opt st.binds)
      ~defer:st.defer
      ~slot_for_binds:(Some st.len) ce
  in
  let n =
    match st.cur with
    | None ->
      if a.ti.Network.eq <> [] || a.ti.Network.others <> [] then
        err "first condition cannot reference earlier bindings";
      get_entry st a.amem
    | Some _ -> get_two_input st ~neg:false a.amem a.ti
  in
  register_binds st a.global_binds;
  st.deferred_rev <-
    List.fold_left
      (fun acc (v, rel, field) -> (v, rel, st.len, field) :: acc)
      st.deferred_rev a.ce_deferred;
  st.len <- st.len + 1;
  st.cur <- Some n;
  note_chain st n

let add_negative_ce st ce =
  let a =
    analyze st.net
      ~lookup:(Hashtbl.find_opt st.binds)
      ~defer:(fun _ -> false)
      ~slot_for_binds:None ce
  in
  if a.ce_deferred <> [] then err "negated CE references a variable bound in another group";
  let n = get_two_input st ~neg:true a.amem a.ti in
  st.cur <- Some n;
  note_chain st n

let rec add_cond st = function
  | Cond.Pos ce -> add_positive_ce st ce
  | Cond.Neg ce -> add_negative_ce st ce
  | Cond.Ncc group -> add_ncc st group

and add_ncc st group =
  let net = st.net in
  let parent = match st.cur with Some c -> c | None -> err "NCC cannot open a production" in
  (* Build the subnetwork from the current node; its bindings are local
     to the group. *)
  let sub = clone_state st in
  List.iter (add_cond sub) group;
  let sub_end = match sub.cur with Some c -> c | None -> assert false in
  st.chain_rev <- List.rev_append (List.rev sub.chain_rev) st.chain_rev;
  let ncc =
    Network.add_node net ~kind:(Network.Ncc { prefix_len = st.len })
      ~parent:(Some parent.Network.id) ~alpha_src:None
  in
  Network.add_successor net ~of_:parent.Network.id ~node:ncc.Network.id ~port:Network.P_left;
  note_created st ncc;
  let partner =
    Network.add_node net
      ~kind:(Network.Ncc_partner { ncc = ncc.Network.id; prefix_len = st.len })
      ~parent:(Some sub_end.Network.id) ~alpha_src:None
  in
  Network.add_successor net ~of_:sub_end.Network.id ~node:partner.Network.id
    ~port:Network.P_right;
  note_created st partner;
  st.cur <- Some ncc;
  note_chain st ncc;
  note_chain st partner

(* --- P-node --------------------------------------------------------- *)

let attach_pnode st prod ~perm ~bindings =
  let net = st.net in
  let parent = match st.cur with Some c -> c | None -> assert false in
  let pinfo = { Network.production = prod; perm; bindings } in
  let n =
    Network.add_node net ~kind:(Network.Pnode pinfo) ~parent:(Some parent.Network.id)
      ~alpha_src:None
  in
  Network.add_successor net ~of_:parent.Network.id ~node:n.Network.id ~port:Network.P_left;
  note_created st n;
  note_chain st n;
  n

(* --- linear build ---------------------------------------------------- *)

(* The CEs that occupy token slots: top-level positives only (an NCC
   group's positives live in its subnetwork's tokens). *)
let slot_ces lhs = List.filter_map (function Cond.Pos ce -> Some ce | _ -> None) lhs

let build_linear net prod created =
  let st = fresh_state net created in
  List.iter (add_cond st) prod.Production.lhs;
  let bindings = List.rev st.bind_order_rev in
  let pnode = attach_pnode st prod ~perm:None ~bindings in
  (pnode, List.rev st.chain_rev)

(* --- reordered linear build ------------------------------------------- *)

(* Linear build with the positive CEs placed in [order] (a permutation
   from {!Jcost.suggest_order}, which respects predicate-binding
   dependencies) and the negations after all positives — sound because
   the LHS is a declarative conjunction and every variable a negation
   consults is bound by some positive CE. Slots follow placement order;
   as in the bilinear build, the P-node carries the permutation back to
   CE order and the bindings are remapped to CE coordinates, so conflict
   sets, RHS evaluation and chunking see exactly the written production. *)
let build_reordered net prod created order =
  let st = fresh_state net created in
  let positives = Array.of_list (slot_ces prod.Production.lhs) in
  Array.iter (fun ce_idx -> add_positive_ce st positives.(ce_idx)) order;
  List.iter
    (function
      | Cond.Neg ce -> add_negative_ce st ce
      | Cond.Pos _ -> ()
      | Cond.Ncc _ -> err "reordered build cannot place an NCC group")
    prod.Production.lhs;
  let layout = order in
  let perm = Array.make (Array.length layout) 0 in
  Array.iteri (fun slot ce_idx -> perm.(ce_idx) <- slot) layout;
  let bindings =
    List.rev_map
      (fun (v, (slot, fld)) -> (v, (layout.(slot), fld)))
      st.bind_order_rev
  in
  let pnode = attach_pnode st prod ~perm:(Some perm) ~bindings in
  (pnode, List.rev st.chain_rev)

(* --- bilinear build --------------------------------------------------- *)

(* First positive CE (by position among positives) in which each variable
   gets its binding occurrence under linear compilation. *)
let first_binding_positions positives =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun idx ce ->
      let rec scan_test field = function
        | Cond.T_var v -> if not (Hashtbl.mem tbl v) then Hashtbl.replace tbl v idx
        | Cond.T_conj ts -> List.iter (scan_test field) ts
        | Cond.T_const _ | Cond.T_rel _ | Cond.T_disj _ -> ()
      in
      List.iter (fun (f, t) -> scan_test f t) ce.Cond.tests)
    positives;
  tbl

type side = {
  s_node : Network.node;
  s_layout : int array;  (* slot -> positive-CE index *)
  s_binds : (string, int * int) Hashtbl.t;
  s_bind_order_rev : (string * (int * int)) list;
  s_deferred : (string * Cond.relation * int * int) list;
}

let rec chunks k = function
  | [] -> []
  | l ->
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take k [] l in
    c :: chunks k rest

let combine_sides st_created net (a : side) (b : side) ~ctx_len =
  let b_eq = ref [] in
  let b_others = ref [] in
  for j = 0 to ctx_len - 1 do
    b_eq := Network.B_same_wme { a_slot = j; b_slot = j } :: !b_eq
  done;
  List.iter
    (fun (v, rel, slot_b, fld_b) ->
      match Hashtbl.find_opt a.s_binds v with
      | Some (slot_a, fld_a) ->
        let bt =
          Network.B_fields
            { a_slot = slot_a; a_fld = fld_a; rel = invert rel; b_slot = slot_b; b_fld = fld_b }
        in
        (* semantics: b-side field REL a-side value; B_fields evaluates
           a REL' b, hence the inversion. *)
        if invert rel = Cond.Eq then b_eq := bt :: !b_eq else b_others := bt :: !b_others
      | None -> err "variable <%s> of a bilinear group is never bound" v)
    b.s_deferred;
  let bi =
    {
      Network.b_eq = List.sort Stdlib.compare !b_eq;
      b_others = List.sort Stdlib.compare !b_others;
      right_drop = ctx_len;
    }
  in
  let spec_matches n =
    match n.Network.kind with
    | Network.Bjoin bi' ->
      bi' = bi
      && List.exists
           (fun (id, p) -> id = n.Network.id && p = Network.P_right)
           (Network.successors b.s_node)
    | _ -> false
  in
  let node =
    let existing =
      if share_on net then
        find_shared_child net a.s_node ~port:Network.P_left spec_matches
      else None
    in
    match existing with
    | Some n -> n
    | None ->
      let n =
        Network.add_node net ~kind:(Network.Bjoin bi)
          ~parent:(Some a.s_node.Network.id) ~alpha_src:None
      in
      Network.add_successor net ~of_:a.s_node.Network.id ~node:n.Network.id
        ~port:Network.P_left;
      Network.add_successor net ~of_:b.s_node.Network.id ~node:n.Network.id
        ~port:Network.P_right;
      Vec.push st_created n.Network.id;
      n
  in
  let a_len = Array.length a.s_layout in
  let layout =
    Array.append a.s_layout (Array.sub b.s_layout ctx_len (Array.length b.s_layout - ctx_len))
  in
  let binds = Hashtbl.copy a.s_binds in
  let order = ref a.s_bind_order_rev in
  List.iter
    (fun (v, (slot, fld)) ->
      if not (Hashtbl.mem binds v) && slot >= ctx_len then begin
        let pos = (slot - ctx_len + a_len, fld) in
        Hashtbl.replace binds v pos;
        order := (v, pos) :: !order
      end)
    (List.rev b.s_bind_order_rev);
  {
    s_node = node;
    s_layout = layout;
    s_binds = binds;
    s_bind_order_rev = !order;
    s_deferred = a.s_deferred;
  }

let build_bilinear net prod created =
  let cfg = net.Network.config in
  let positives = slot_ces prod.Production.lhs in
  let n_pos = List.length positives in
  let ctx_len = min cfg.Network.bilinear_ctx n_pos in
  let first_bind = first_binding_positions positives in
  let chain_acc = ref [] in
  (* context prefix *)
  let st = fresh_state net created in
  List.iteri
    (fun i ce -> if i < ctx_len then add_positive_ce st ce)
    positives;
  chain_acc := st.chain_rev;
  let ctx_node = match st.cur with Some c -> c | None -> err "empty context" in
  let ctx_side =
    {
      s_node = ctx_node;
      s_layout = Array.init ctx_len (fun i -> i);
      s_binds = Hashtbl.copy st.binds;
      s_bind_order_rev = st.bind_order_rev;
      s_deferred = [];
    }
  in
  let rest = List.filteri (fun i _ -> i >= ctx_len) positives in
  let rest_idx = List.mapi (fun i ce -> (ctx_len + i, ce)) rest in
  let groups = chunks cfg.Network.bilinear_group rest_idx in
  let sides =
    List.map
      (fun group ->
        let gst = fresh_state net created in
        Hashtbl.iter (fun v p -> Hashtbl.replace gst.binds v p) ctx_side.s_binds;
        gst.bind_order_rev <- ctx_side.s_bind_order_rev;
        gst.cur <- Some ctx_node;
        gst.len <- ctx_len;
        let layout = ref (Array.init ctx_len (fun i -> i)) in
        List.iter
          (fun (ce_idx, ce) ->
            gst.defer <-
              (fun v ->
                match Hashtbl.find_opt first_bind v with
                | Some j -> j < ce_idx
                | None -> false);
            add_positive_ce gst ce;
            layout := Array.append !layout [| ce_idx |])
          group;
        chain_acc := List.rev_append (List.rev gst.chain_rev) !chain_acc;
        {
          s_node = (match gst.cur with Some c -> c | None -> assert false);
          s_layout = !layout;
          s_binds = gst.binds;
          s_bind_order_rev = gst.bind_order_rev;
          s_deferred = List.rev gst.deferred_rev;
        })
      groups
  in
  let combined =
    match sides with
    | [] -> ctx_side
    | first :: rest ->
      List.fold_left
        (fun acc side ->
          let r = combine_sides created net acc side ~ctx_len in
          chain_acc := r.s_node.Network.id :: !chain_acc;
          r)
        first rest
  in
  (* negative conditions and NCCs, applied to the combined stream *)
  let nst = fresh_state net created in
  Hashtbl.iter (fun v p -> Hashtbl.replace nst.binds v p) combined.s_binds;
  nst.bind_order_rev <- combined.s_bind_order_rev;
  nst.cur <- Some combined.s_node;
  nst.len <- Array.length combined.s_layout;
  List.iter
    (fun c ->
      match c with
      | Cond.Pos _ -> ()
      | Cond.Neg _ | Cond.Ncc _ -> add_cond nst c)
    prod.Production.lhs;
  chain_acc := List.rev_append (List.rev nst.chain_rev) !chain_acc;
  (* P-node: permute slots back to CE order. *)
  let layout = combined.s_layout in
  let perm = Array.make (Array.length layout) 0 in
  Array.iteri (fun slot ce_idx -> perm.(ce_idx) <- slot) layout;
  let identity = Array.for_all2 (fun a b -> a = b) perm (Array.init (Array.length perm) Fun.id) in
  let bindings =
    List.rev_map
      (fun (v, (slot, fld)) -> (v, (layout.(slot), fld)))
      nst.bind_order_rev
  in
  let pnode =
    attach_pnode nst prod ~perm:(if identity then None else Some perm) ~bindings
  in
  chain_acc := pnode.Network.id :: !chain_acc;
  (pnode, List.rev !chain_acc)

(* --- entry points ----------------------------------------------------- *)

let add_production net prod =
  let name = prod.Production.name in
  if Hashtbl.mem net.Network.prods name then
    invalid_arg
      (Printf.sprintf "Build.add_production: %s already present" (Sym.name name));
  let first_new_id = Network.next_id net in
  let created = Vec.create () in
  let cfg = net.Network.config in
  let use_bilinear =
    cfg.Network.bilinear
    && List.length (slot_ces prod.Production.lhs) >= cfg.Network.bilinear_min_ces
    && not (Production.negates_before_binding prod)
  in
  let reorder =
    if use_bilinear || not cfg.Network.reorder_joins then None
    else Jcost.suggest_order prod
  in
  let pnode, chain =
    if use_bilinear then build_bilinear net prod created
    else
      match reorder with
      | Some order -> build_reordered net prod created order
      | None -> build_linear net prod created
  in
  let meta =
    {
      Network.pnode = pnode.Network.id;
      meta_production = prod;
      chain;
      created_nodes = Vec.to_list created;
    }
  in
  Hashtbl.replace net.Network.prods name meta;
  net.Network.prod_order_rev <- name :: net.Network.prod_order_rev;
  (* Compile node programs for the newly created nodes and splice them
     into the jumptable (§5.1) — run-time additions (chunks) execute
     compiled without rebuilding anything. Shared nodes keep their
     existing programs; the programs read the successor arrays through
     the node records, so fan-out patches are picked up for free. *)
  Program.compile_new net (Vec.to_list created);
  { meta; first_new_id; new_beta_nodes = Vec.to_list created }

let add_all net prods = List.map (add_production net) prods

let excise_production net name =
  match Hashtbl.find_opt net.Network.prods name with
  | None -> invalid_arg "Build.excise_production: unknown production"
  | Some pm ->
    Hashtbl.remove net.Network.prods name;
    net.Network.prod_order_rev <-
      List.filter (fun s -> not (Sym.equal s name)) net.Network.prod_order_rev;
    let find_partner ncc_id =
      Hashtbl.fold
        (fun _ n acc ->
          match n.Network.kind with
          | Network.Ncc_partner { ncc; _ } when ncc = ncc_id -> Some n
          | _ -> acc)
        net.Network.beta None
    in
    let rec maybe_remove id =
      match Hashtbl.find_opt net.Network.beta id with
      | None -> ()
      | Some n ->
        if Network.successors n = [] then begin
          (* An NCC node also owns its partner and through it the
             subnetwork; remove the partner first so the subnetwork can
             unwind. *)
          (match n.Network.kind with
          | Network.Ncc _ -> (
            match find_partner n.Network.id with
            | Some partner ->
              Hashtbl.remove net.Network.beta partner.Network.id;
              Program.clear_node net partner.Network.id;
              Memory.drop_node net.Network.mem ~node:partner.Network.id;
              (match partner.Network.parent with
              | Some p ->
                Network.remove_successor net ~of_:p ~node:partner.Network.id;
                maybe_remove p
              | None -> ())
            | None -> ())
          | _ -> ());
          Hashtbl.remove net.Network.beta id;
          Program.clear_node net id;
          Memory.drop_node net.Network.mem ~node:id;
          (match n.Network.alpha_src with
          | Some _ -> Alpha.remove_successor net.Network.alpha ~node:id
          | None -> ());
          (match n.Network.parent with
          | Some p ->
            Network.remove_successor net ~of_:p ~node:id;
            maybe_remove p
          | None -> ())
        end
    in
    maybe_remove pm.Network.pnode;
    (* Drop remaining conflict-set entries of this production. *)
    List.iter
      (fun inst ->
        if Sym.equal inst.Conflict_set.prod name then
          Conflict_set.remove net.Network.cs inst)
      (Conflict_set.to_list net.Network.cs)
