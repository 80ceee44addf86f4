open Psme_obs
open Psme_rete

let mem_access tr ~t_us ~proc ~task (o : Runtime.outcome) =
  if o.Runtime.acc_line >= 0 then
    Trace.emit tr Trace.Mem_access ~t_us ~proc ~node:o.Runtime.acc_node ~task
      ~scanned:o.Runtime.acc_line
      ~emitted:(Stream.access_bits ~write:true ~locked:o.Runtime.acc_locked)
      ()
