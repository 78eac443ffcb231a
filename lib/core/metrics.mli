(** Pipeline metrics: named stage timings plus named counters, collected
    across one compile/run and rendered as stable JSON.  Insertion order
    is preserved; re-timing an existing stage accumulates into it.

    Thread safety: every operation takes the collector's internal mutex,
    so one collector may be updated from several domains, as the tasks
    of a run split over a {!Parallel} pool do. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t stage f] — run [f], accumulating its wall time (ms) under
    [stage]; the stage is charged even when [f] raises. *)

val add_ms : t -> string -> float -> unit
(** Accumulate milliseconds under a stage without running anything. *)

val incr : ?by:int -> t -> string -> unit
(** Increment a counter (created at 0 on first use). *)

val set_counter : t -> string -> int -> unit
(** Overwrite a counter's value. *)

val stages : t -> (string * float) list
(** Stage timings in insertion order, milliseconds. *)

val counters : t -> (string * int) list
(** Counters in insertion order. *)

val total_ms : t -> float
(** Sum of all stage timings. *)

val to_json : t -> string
(** Stable JSON [{"stages":{…},"counters":{…}}], insertion-ordered. *)
