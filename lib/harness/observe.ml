open Psme_support
open Psme_rete
open Psme_engine
open Psme_obs

let kind_name = function
  | Network.Entry -> "entry"
  | Network.Join _ -> "join"
  | Network.Neg _ -> "neg"
  | Network.Ncc _ -> "ncc"
  | Network.Ncc_partner _ -> "ncc-partner"
  | Network.Bjoin _ -> "bjoin"
  | Network.Pnode _ -> "pnode"

let node_kind net id =
  match Hashtbl.find_opt net.Network.beta id with
  | None -> "?"
  | Some n -> kind_name n.Network.kind

let node_name net id =
  match Hashtbl.find_opt net.Network.beta id with
  | None -> Printf.sprintf "node#%d" id
  | Some n -> (
    match n.Network.kind with
    | Network.Pnode pi ->
      Printf.sprintf "pnode#%d(%s)" id
        (Sym.name pi.Network.production.Psme_ops5.Production.name)
    | k -> Printf.sprintf "%s#%d" (kind_name k) id)

(* node id -> owning production names, via every chain that passes
   through it (shared nodes get all their owners) *)
let prod_table net =
  let tbl = Hashtbl.create 256 in
  let add id name =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
    if not (List.mem name prev) then Hashtbl.replace tbl id (name :: prev)
  in
  List.iter
    (fun pm ->
      let name = Sym.name pm.Network.meta_production.Psme_ops5.Production.name in
      List.iter (fun id -> add id name) pm.Network.chain;
      add pm.Network.pnode name)
    (Network.productions net);
  tbl

let node_prods net =
  let tbl = prod_table net in
  fun id -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl id))

let profile net events =
  Profile.of_events ~node_kind:(node_kind net) ~node_prods:(node_prods net) events

let chrome_trace ?ledgers net buf events =
  Chrome_trace.to_buffer ~node_name:(node_name net) ?ledgers buf events

(* The [.count], [.total], [.mean], [.min] and [.max] rows of one
   per-cycle quantity; none when no cycle contributes. *)
let summary name = function
  | [] -> []
  | x :: _ as xs ->
    let n = float_of_int (List.length xs) in
    let total = List.fold_left ( +. ) 0. xs in
    [
      (name ^ ".count", n);
      (name ^ ".total", total);
      (name ^ ".mean", total /. n);
      (name ^ ".min", List.fold_left Float.min x xs);
      (name ^ ".max", List.fold_left Float.max x xs);
    ]

let metrics engine =
  let history = Engine.history engine in
  let t = Engine.totals engine in
  let count name n = (name, float_of_int n) in
  let worked = List.filter (fun s -> s.Cycle.tasks > 0) history in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    ([
       count "engine.cycles" (List.length history);
       count "engine.tasks" t.Cycle.tasks;
       count "engine.failed_pops" t.Cycle.failed_pops;
       count "engine.scanned" t.Cycle.scanned;
       count "engine.emitted" t.Cycle.emitted;
       count "rete.runtime.alpha_activations" t.Cycle.alpha_activations;
     ]
    @ summary "engine.cycle.serial_us" (List.map (fun s -> s.Cycle.serial_us) history)
    @ summary "engine.cycle.makespan_us" (List.map (fun s -> s.Cycle.makespan_us) history)
    @ summary "engine.cycle.speedup_x" (List.map Cycle.speedup worked)
    @ Metrics.snapshot Metrics.global)
