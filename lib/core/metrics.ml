(** Pipeline metrics: named stage timings plus named counters, collected
    across one compile/run and rendered as stable JSON.

    Stages and counters keep insertion order so JSON output is
    deterministic for a given pipeline shape; timing the same stage name
    twice accumulates (e.g. per-document execution legs).

    Every update and read takes the collector's mutex, so a collector may
    be shared across domains: the documents of a run split over a pool
    charge the run's one collector.  The mutex is uncontended in
    sequential use. *)

type t = {
  lock : Mutex.t;
  mutable stages : (string * float) list;  (** reversed insertion order, ms *)
  mutable counters : (string * int) list;  (** reversed insertion order *)
}

let create () = { lock = Mutex.create (); stages = []; counters = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* update an assoc entry in place (preserving position) or append *)
let update_assoc l key f init =
  let rec go = function
    | [] -> None
    | (k, v) :: rest when String.equal k key -> Some ((k, f v) :: rest)
    | kv :: rest -> Option.map (fun r -> kv :: r) (go rest)
  in
  match go l with Some l' -> l' | None -> (key, f init) :: l

let add_ms t stage ms =
  locked t (fun () -> t.stages <- update_assoc t.stages stage (fun v -> v +. ms) 0.0)

(** [time t stage f] — run [f], accumulate its wall time under [stage].
    The stage is charged even when [f] raises. *)
let time t stage f =
  let t0 = Xdb_rel.Clock.now_ns () in
  Fun.protect ~finally:(fun () -> add_ms t stage (Xdb_rel.Clock.ms_since t0)) f

let incr ?(by = 1) t name =
  locked t (fun () -> t.counters <- update_assoc t.counters name (fun v -> v + by) 0)

let set_counter t name v =
  locked t (fun () -> t.counters <- update_assoc t.counters name (fun _ -> v) 0)

let stages t = locked t (fun () -> List.rev t.stages)
let counters t = locked t (fun () -> List.rev t.counters)

let total_ms t =
  locked t (fun () -> List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 t.stages)

(* JSON string escaping for the keys (values are numbers) *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Stable JSON: [{"stages":{…},"counters":{…}}], insertion-ordered. *)
let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf {|{"stages":{|};
  List.iteri
    (fun i (name, ms) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":%.4f|} (escape name) ms))
    (stages t);
  Buffer.add_string buf {|},"counters":{|};
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":%d|} (escape name) v))
    (counters t);
  Buffer.add_string buf "}}";
  Buffer.contents buf
