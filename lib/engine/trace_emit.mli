(** Shared tracer-emission helpers for the engines. *)

open Psme_obs
open Psme_rete

val mem_access :
  Trace.t -> t_us:float -> proc:int -> task:int -> Runtime.outcome -> unit
(** Emit the [Mem_access] event of the line-lock section a task
    performed (none for a task that ran no section), using the
    field-reuse convention of {!Psme_obs.Stream}. Every section is a
    write. *)
