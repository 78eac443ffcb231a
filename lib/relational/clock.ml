(* One monotonic clock for every library timer.  See clock.mli. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_since t0 = float_of_int (now_ns () - t0) *. 1e-6
