open Psme_rete

type params = {
  two_input_base_us : float;
  entry_base_us : float;
  pnode_base_us : float;
  per_scan_us : float;
  per_child_us : float;
  alpha_act_us : float;
  queue_op_us : float;
  poll_us : float;
  spin_unit_us : float;
  cycle_overhead_us : float;
  fire_us : float;
}

(* Calibration: with typical activations scanning 2–8 entries and
   generating 0–2 children, costs land in the paper's 200–800 µs band
   with a mean near 400 µs. A queue operation of 30 µs against a 400 µs
   task saturates one shared queue at roughly 400/(2*30) = 7 match
   processes — the Figure 6-1 knee. *)
let default =
  {
    two_input_base_us = 190.;
    entry_base_us = 80.;
    pnode_base_us = 110.;
    per_scan_us = 30.;
    per_child_us = 45.;
    alpha_act_us = 8.;
    queue_op_us = 30.;
    poll_us = 25.;
    spin_unit_us = 10.;
    cycle_overhead_us = 350.;
    fire_us = 120.;
  }

let[@inline] task_cost p (o : Runtime.outcome) =
  let base =
    match o.Runtime.cost_class with
    | Runtime.Entry_task -> p.entry_base_us
    | Runtime.Pnode_task -> p.pnode_base_us
    | Runtime.Two_input_task -> p.two_input_base_us
    | Runtime.Absorbed_task -> 0.
  in
  base
  +. (p.per_scan_us *. float_of_int o.Runtime.scanned)
  +. (p.per_child_us *. float_of_int (Array.length o.Runtime.children))

type charge = { mutable task_us : float }

let charge p o r = r.task_us <- task_cost p o
