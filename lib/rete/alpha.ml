open Psme_support
open Psme_ops5

type atest =
  | A_const of int * Value.t
  | A_disj of int * Value.t list
  | A_rel of int * Cond.relation * Value.t
  | A_same of int * Cond.relation * int

let atest_holds test w =
  match test with
  | A_const (f, v) -> Value.equal (Wme.field w f) v
  | A_disj (f, vs) -> List.exists (Value.equal (Wme.field w f)) vs
  | A_rel (f, rel, v) -> Cond.eval_relation rel (Wme.field w f) v
  | A_same (f1, rel, f2) -> Cond.eval_relation rel (Wme.field w f1) (Wme.field w f2)

(* Node sharing compares tests with [Value.equal] (not polymorphic
   equality) so a test built from an interned symbol and one built from
   the same symbol re-interned still share; [A_disj] values are
   canonicalized (sorted, deduplicated) on entry to [add_chain], making
   disjunction equality order-insensitive. *)
let atest_equal a b =
  match a, b with
  | A_const (f1, v1), A_const (f2, v2) -> f1 = f2 && Value.equal v1 v2
  | A_disj (f1, vs1), A_disj (f2, vs2) ->
    f1 = f2
    && List.length vs1 = List.length vs2
    && List.for_all2 Value.equal vs1 vs2
  | A_rel (f1, r1, v1), A_rel (f2, r2, v2) -> f1 = f2 && r1 = r2 && Value.equal v1 v2
  | A_same (f1, r1, g1), A_same (f2, r2, g2) -> f1 = f2 && r1 = r2 && g1 = g2
  | (A_const _ | A_disj _ | A_rel _ | A_same _), _ -> false

let canonical_atest = function
  | A_disj (f, vs) -> A_disj (f, List.sort_uniq Value.compare vs)
  | (A_const _ | A_rel _ | A_same _) as t -> t

module VH = Hashtbl.Make (struct
  type t = int * Value.t

  let equal (f1, v1) (f2, v2) = f1 = f2 && Value.equal v1 v2
  let hash (f, v) = ((f * 0x9e3779b1) lxor Value.hash v) land max_int
end)

(* Keyed by class symbol without [caml_hash]: every wme change probes
   it once. *)
module SH = Hashtbl.Make (Sym)

(* Each chain level keeps, alongside the plain child list, a dispatch
   table for its [A_const] children: a wme can match at most one
   constant test per field, so one hash probe per distinct field
   replaces testing every constant sibling. Non-constant children
   (disjunctions, relations, same-field tests) are still tested one by
   one — they are rare. The walk still *charges* one activation per
   sibling (the dispatch is an implementation shortcut, not a change to
   the network the cost model measures), and passing children are
   expanded in child-list order (newest first, via [seq]) so emission
   order matches the pre-dispatch walk exactly. *)

type anode = {
  _aid : int;
  test : atest;
  seq : int;  (* insertion index within the parent level *)
  children : level;
  mutable mem : amem option;
}

and level = {
  mutable all : anode list;  (* newest first *)
  mutable size : int;
  consts : anode VH.t;  (* (field, value) -> the unique A_const child *)
  mutable const_fields : int list;  (* distinct fields among const children *)
  mutable others : anode list;  (* non-const children, newest first *)
}

and amem = {
  mid : int;
  mutable succs : int list;  (* reverse registration order *)
  mutable order : int array option;
      (* [succs] in registration order, built at first use after a
         change: a build that registers thousands of successors pays
         for one array per memory, not one per registration *)
}

type t = {
  alloc_id : unit -> int;
  roots : root SH.t;  (* class -> its discrimination tree *)
  mems : (int, amem) Hashtbl.t;
  chains : (int, Sym.t * atest list) Hashtbl.t;
      (* amem id -> the class and test chain that feeds it (analysis
         introspection and the §5.2 update's filter; the wme-change walk
         never consults this) *)
  mutable n_nodes : int;
  mutable activations : int;
}

and root = {
  top_children : level;
  mutable top_mem : amem option;  (* CE with class test only *)
}

let level_create () =
  { all = []; size = 0; consts = VH.create 4; const_fields = []; others = [] }

let level_add lvl node =
  lvl.all <- node :: lvl.all;
  lvl.size <- lvl.size + 1;
  match node.test with
  | A_const (f, v) ->
    VH.replace lvl.consts (f, v) node;
    if not (List.mem f lvl.const_fields) then lvl.const_fields <- f :: lvl.const_fields
  | A_disj _ | A_rel _ | A_same _ -> lvl.others <- node :: lvl.others

let level_find lvl test =
  match test with
  | A_const (f, v) -> VH.find_opt lvl.consts (f, v)
  | A_disj _ | A_rel _ | A_same _ ->
    List.find_opt (fun c -> atest_equal c.test test) lvl.others

let create ~alloc_id =
  { alloc_id; roots = SH.create 64; mems = Hashtbl.create 64;
    chains = Hashtbl.create 64; n_nodes = 0; activations = 0 }

let get_root t cls =
  match SH.find_opt t.roots cls with
  | Some r -> r
  | None ->
    let r = { top_children = level_create (); top_mem = None } in
    SH.replace t.roots cls r;
    r

let new_mem t =
  let m = { mid = t.alloc_id (); succs = []; order = None } in
  Hashtbl.replace t.mems m.mid m;
  t.n_nodes <- t.n_nodes + 1;
  m

let add_chain t ~cls tests =
  let tests = List.map canonical_atest tests in
  let record mid = Hashtbl.replace t.chains mid (cls, tests) in
  let root = get_root t cls in
  (* Walk/extend the chain one test at a time, sharing prefixes. *)
  let rec place lvl get_mem set_mem = function
    | [] -> (
      match get_mem () with
      | Some m -> m.mid
      | None ->
        let m = new_mem t in
        set_mem (Some m);
        record m.mid;
        m.mid)
    | test :: rest ->
      let child =
        match level_find lvl test with
        | Some c -> c
        | None ->
          let c =
            { _aid = t.alloc_id (); test; seq = lvl.size;
              children = level_create (); mem = None }
          in
          t.n_nodes <- t.n_nodes + 1;
          level_add lvl c;
          c
      in
      place child.children (fun () -> child.mem) (fun m -> child.mem <- m) rest
  in
  place root.top_children
    (fun () -> root.top_mem)
    (fun m -> root.top_mem <- m)
    tests

let add_successor t ~amem ~node =
  let m = Hashtbl.find t.mems amem in
  if not (List.mem node m.succs) then begin
    m.succs <- node :: m.succs;
    m.order <- None
  end

let remove_successor t ~node =
  Hashtbl.iter
    (fun _ m ->
      if List.mem node m.succs then begin
        m.succs <- List.filter (fun i -> i <> node) m.succs;
        m.order <- None
      end)
    t.mems

let successor_array m =
  match m.order with
  | Some a -> a
  | None ->
    let a = Array.of_list (List.rev m.succs) in
    m.order <- Some a;
    a

let matching_successors t w f =
  let count = ref 0 in
  (match SH.find_opt t.roots w.Wme.cls with
  | None -> ()
  | Some root ->
    (match root.top_mem with Some m -> f (successor_array m) | None -> ());
    let rec expand node =
      (match node.mem with Some m -> f (successor_array m) | None -> ());
      walk node.children
    and walk lvl =
      if lvl.size > 0 then begin
        (* every sibling at an expanded level counts as one activation,
           exactly as the undispatched walk performed *)
        count := !count + lvl.size;
        let cands = ref [] in
        List.iter
          (fun fld ->
            match VH.find_opt lvl.consts (fld, Wme.field w fld) with
            | Some n -> cands := n :: !cands
            | None -> ())
          lvl.const_fields;
        List.iter
          (fun n -> if atest_holds n.test w then cands := n :: !cands)
          lvl.others;
        match !cands with
        | [] -> ()
        | [ n ] -> expand n
        | many ->
          List.iter expand (List.sort (fun a b -> compare b.seq a.seq) many)
      end
    in
    walk root.top_children);
  t.activations <- t.activations + !count;
  !count

(* A memory's place in the walk above: the [seq] of each chain node from
   its class root down to the node that holds it. The walk visits
   memories in the lexicographic order of these paths, larger [seq]
   first and a path before its extensions (a node's memory before its
   children's). *)
let walk_path t (cls, tests) =
  let rec down lvl acc = function
    | [] -> List.rev acc
    | test :: rest -> (
      match level_find lvl test with
      | Some n -> down n.children (n.seq :: acc) rest
      | None -> invalid_arg "Alpha.walk_path: chain not in the network")
  in
  down (SH.find t.roots cls).top_children [] tests

let rec compare_paths a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then compare y x else compare_paths a' b'

let in_walk_order t amems =
  let ranked =
    List.filter_map
      (fun amem ->
        Option.map
          (fun ((cls, _) as chain) -> (cls, walk_path t chain, amem))
          (Hashtbl.find_opt t.chains amem))
      amems
    (* distinct memories never share a class and a path, so this drops
       exactly the repeated ids *)
    |> List.sort_uniq (fun (c1, p1, _) (c2, p2, _) ->
           match Sym.compare c1 c2 with 0 -> compare_paths p1 p2 | c -> c)
  in
  List.fold_right
    (fun (cls, _, amem) acc ->
      match acc with
      | (c, group) :: rest when Sym.equal c cls -> (c, amem :: group) :: rest
      | _ -> (cls, [ amem ]) :: acc)
    ranked []

let successors t ~amem = Array.to_list (successor_array (Hashtbl.find t.mems amem))

let amems t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.mems [] |> List.sort compare

let amem_exists t amem = Hashtbl.mem t.mems amem

let chain_of t ~amem = Hashtbl.find_opt t.chains amem

let iter_chains t f =
  Hashtbl.iter (fun mid (cls, tests) -> f ~amem:mid ~cls ~tests) t.chains

let node_count t = t.n_nodes
let stats_activations t = t.activations
