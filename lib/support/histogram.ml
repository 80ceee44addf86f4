type t = {
  width : float;
  counts : int array;
  mutable total : int;
}

let create ~bucket_width ~buckets =
  if bucket_width <= 0. then invalid_arg "Histogram.create: width";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets";
  { width = bucket_width; counts = Array.make buckets 0; total = 0 }

let bucket_of t x =
  let i = int_of_float (x /. t.width) in
  let last = Array.length t.counts - 1 in
  if i < 0 then 0 else if i > last then last else i

let add_n t x n =
  let i = bucket_of t x in
  t.counts.(i) <- t.counts.(i) + n;
  t.total <- t.total + n

let add t x = add_n t x 1

let count t = t.total
let bucket_count t = Array.length t.counts
let bucket_width t = t.width
let samples_in t i = t.counts.(i)

let fraction_in t i =
  if t.total = 0 then 0. else float_of_int t.counts.(i) /. float_of_int t.total

let lower_bound t i = t.width *. float_of_int i

let rows t =
  List.init (Array.length t.counts) (fun i ->
      (lower_bound t i, lower_bound t (i + 1), t.counts.(i), fraction_in t i))
