(** The library's one clock.  Every timer of the library — pipeline
    stages ({!Xdb_core.Metrics}), operator wall time ({!Stats}) and the
    serving layer's queue wait and service time — reads this monotonic
    nanosecond counter, so a stage timed here never outlasts a span
    timed around it on the same clock. *)

val now_ns : unit -> int
(** Monotonic time in nanoseconds (arbitrary origin; never steps back). *)

val ms_since : int -> float
(** Milliseconds elapsed since a {!now_ns} reading. *)
