(* Machine-speed calibration.

   The reference machine, a 2-vCPU Intel Xeon container, shares its
   cores with other tenants: over phases of seconds to minutes everything runs up to 1.8x
   slower, and a whole run can fall inside one slow phase, so raw timings
   of identical runs spread by 10-20%. A fixed CPU kernel slows down in
   step with the program, so it runs between operations and every timing
   is reported at the kernel's reference speed: raw time x reference /
   kernel time around the operation (README, "Findings"). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Three kinds of work, because slow phases do not slow them equally:
   read-modify-writes at pseudo-random slots of a 2 MB table (cache
   misses, no allocation), allocation that dies in the minor heap, and
   building, sorting and probing structures that outlive minor
   collections. The kernel's time is the geometric mean of the three. *)

let table = Array.make (1 lsl 18) 0

let scatter () =
  let x = ref 12345 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land ((1 lsl 18) - 1) in
    table.(j) <- table.(j) + i
  done;
  !x

let short_lived () =
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let s = string_of_int (i land 1023) and l = [ i; i + 1; i + 2 ] in
    acc := !acc + String.length s + List.length l
  done;
  !acc

let long_lived () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let sorted = List.sort compare (List.init 4000 (fun i -> i * 31 mod 1000)) in
  let acc = ref (List.length sorted) in
  for i = 0 to 4000 do
    match Hashtbl.find_opt h (i * 7919) with
    | Some s -> acc := !acc + String.length s
    | None -> ()
  done;
  !acc

let best_of_three f =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (f ()));
    best := min !best (now_ns () - t0)
  done;
  float_of_int !best

(* The kernel's time on the reference machine at its uncontended speed,
   in ns: every reported timing is scaled to it. *)
let reference_ns = 1_250_000.

(* The kernel's time in ns. It starts on a collected heap, so the
   long-lived part does not depend on what the program left behind. *)
let sample () =
  Gc.full_major ();
  let a = best_of_three scatter in
  let b = best_of_three short_lived in
  let c = best_of_three long_lived in
  Float.cbrt (a *. b *. c)
