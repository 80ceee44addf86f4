(** Findings: the common currency of the analysis suite.

    Every analyzer — the network verifier, the static analyzer, the
    race detector — reduces to a list of findings plus a count of the
    units it examined, so the CLI can render them uniformly and turn
    them into stable exit codes. *)

type severity = Error | Warning

type finding = {
  severity : severity;
  rule : string;  (** stable kebab-case rule name, e.g. ["id-order"] *)
  subject : string;  (** what it is about: a production, node, line... *)
  detail : string;
}

type report = {
  findings : finding list;
  checked : int;  (** units examined (nodes, productions, accesses) *)
  suppressed : int;  (** findings dropped by pragma annotations *)
}

val error : rule:string -> subject:string -> string -> finding
val warning : rule:string -> subject:string -> string -> finding

val report : ?checked:int -> ?suppressed:int -> finding list -> report
val merge : report -> report -> report
val empty : report

val errors : report -> int
val warnings : report -> int

val exit_code : ?strict:bool -> report -> int
(** 0 when clean, 1 when the report contains errors — or, under
    [strict], any finding at all. *)

val pragmas_of_source : string -> (string * string option) list
(** [; analyze: allow <rule> [<subject>]] comment lines of a source
    text: (rule, optional subject) pairs. Words after the subject are
    free text, conventionally the reason. *)

val suppressed_by : string -> finding -> bool
(** Predicate over findings: suppressed by one of the source's pragmas
    (rule matches; subject matches or the pragma names none). *)

val to_json : report -> string
(** Machine-readable rendering (one {!Psme_obs.Json} document): findings
    with severity/rule/subject/detail plus the error/warning/checked/
    suppressed counts. *)

val pp_finding : Format.formatter -> finding -> unit
val pp : Format.formatter -> report -> unit
