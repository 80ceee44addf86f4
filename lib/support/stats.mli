(** Order statistics of a sample (perfbench's medians and quantiles). *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; sorts a copy. Nearest-rank:
    [p = 0] is the minimum, [p = 100] the maximum. An empty array yields
    [nan]; [p] outside [0,100] (or nan) raises [Invalid_argument]. *)
