(** Per-column statistics (NDV, min/max, null fraction, most-common values,
    equi-depth histogram) computed by {!Analyze} and consumed by the {!Cost}
    model for selectivity estimation. *)

type t = {
  n_sampled : int;  (** values examined, including NULLs *)
  null_frac : float;
  ndv : int;  (** distinct non-null values in the sample *)
  min_v : Value.t option;
      (** {!Analyze.table} takes min/max from every row, not the sample *)
  max_v : Value.t option;
  mcvs : (Value.t * float) list;
      (** most-common values with frequency as a fraction of all sampled
          rows, most frequent first *)
  bounds : Value.t array;
      (** equi-depth histogram boundaries over non-MCV values, ascending in
          {!Value.compare_key} order; [[||]] when the sample is too small *)
}

type table_stats = {
  row_count : int;  (** exact table cardinality at ANALYZE time *)
  version : int;  (** catalog stats version stamped at ANALYZE time *)
  columns : (string * t) list;
}

val empty : t

val is_statable : Value.t -> bool
(** Whether a value takes part in the statistics: not NULL, not XML. *)

val compute : ?n_buckets:int -> ?n_mcvs:int -> Value.t list -> t
(** Build statistics from a (sampled) list of column values.  XMLType
    values count as NULL.  Defaults: 32 histogram buckets, 8 MCV slots. *)

val selectivity_eq : t -> Value.t -> float
(** Fraction of all rows equal to the given constant: MCV frequency when
    the value is an MCV, otherwise uniform over the remaining NDV. *)

val selectivity_eq_unknown : t -> float
(** Average equality selectivity for a probe value unknown at plan time
    (correlated index probes, equi-joins): (1 - null_frac) / ndv. *)

val selectivity_lt : t -> Value.t -> float
(** Fraction of all rows strictly below the constant (MCVs + histogram
    with linear interpolation inside a bucket). *)

val selectivity_le : t -> Value.t -> float

val describe : t -> string
(** One-line summary for debugging and tests. *)
