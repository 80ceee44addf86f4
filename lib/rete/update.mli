(** Run-time update of a newly added production's state (§5.2).

    After {!Build.add_production} at quiescence, the new production's
    unshared memory nodes are empty. This module produces the initial
    task set that fills them:

    + every new node fed from the alpha network receives the current
      working memory as right activations, filtered by the node-ID
      threshold so no duplicate state enters shared nodes;
    + every new node whose (left) parent is an {e old} node receives
      that parent's stored output — the paper's "specially executed"
      last shared node.

    The tasks are ordinary node activations, so any engine may process
    them with full match parallelism (the Figure 6-9 measurement). *)

open Psme_ops5

val update_tasks : Network.t -> Wm.t -> Build.add_result -> Task.t list
(** Empty when the addition created no nodes (fully shared chunk). *)

val update_tasks_batch : Network.t -> Wm.t -> Build.add_result list -> Task.t list
(** Update several productions added at the same quiescence point with a
    single working-memory pass (chunks are handed over per elaboration
    cycle, so several usually arrive together). The node-ID filter uses
    the batch's lowest watermark; replay only applies where a new node
    hangs off a node that predates the whole batch — new-on-new edges
    fill by ordinary propagation. *)
