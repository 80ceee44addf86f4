(** Fixed-width bucketed histograms.

    Used for the paper's tasks-per-cycle distributions (Figures 6-11 and
    6-12) and the hash-bucket access distribution (Figure 6-2). *)

type t

val create : bucket_width:float -> buckets:int -> t
(** [create ~bucket_width ~buckets] covers [\[0, bucket_width*buckets)];
    values beyond the top land in the last (overflow) bucket. *)

val add : t -> float -> unit
val add_n : t -> float -> int -> unit
val count : t -> int
(** Total number of samples. *)

val bucket_count : t -> int
val bucket_width : t -> float
val samples_in : t -> int -> int
(** Raw count in bucket [i]. *)

val fraction_in : t -> int -> float
(** Share of all samples in bucket [i]; 0 when empty. *)

val lower_bound : t -> int -> float
(** Lower edge of bucket [i]. *)

val rows : t -> (float * float * int * float) list
(** [(lo, hi, count, fraction)] for each bucket, in order. *)
