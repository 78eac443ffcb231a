(** Compiled row layouts: column name → integer slot maps for the
    compiled executor's [Value.t array] rows.

    Several names may share one slot (a scan binds each column bare and
    [alias.column]-qualified); resolution follows entry order so the
    first match wins, mirroring [List.assoc] over association-list
    rows. *)

type t

val empty : t

val width : t -> int
(** Physical slots per row. *)

val entries : t -> (string * int) list
(** (name, slot) pairs in resolution order. *)

val of_list : width:int -> (string * int) list -> t
(** Layout from explicit entries (projection/aggregate output). *)

val of_columns : alias:string -> string array -> t
(** Scan layout: one slot per column, bound bare and qualified. *)

val concat : t -> t -> t
(** [concat a b] — [a]'s row with [b]'s appended; [b]'s slots shift past
    [a]'s width and [a]'s names shadow [b]'s. *)

val prefix : t -> int -> t
(** [prefix t w] — the layout of the first [w] slots only (entries with
    slot < [w], order preserved); left inverse of {!concat}. *)

val slot_opt : t -> ?alias:string -> string -> int option
(** Resolve a (possibly qualified) column reference to its slot. *)

val names : t -> string list
(** Distinct names in resolution order. *)

val describe : t -> string
(** Comma-separated {!names} for plan-time error messages. *)

val to_assoc : t -> Value.t array -> (string * Value.t) list
(** Association-list view of a physical row, in entry order. *)

val of_bindings : string list -> t
(** Layout for an externally supplied environment: one slot per binding. *)
