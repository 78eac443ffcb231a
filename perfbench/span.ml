(* In-memory span store of the traced run.

   A span is one interval of one request: name, kind, start, end (ns on
   the monotonic clock), parent span and request id.  Spans live in
   growable int arrays, so recording one allocates nothing beyond the
   occasional doubling; the whole store is written out once, at exit.

   Kinds:
   - [Call]: measured around a call the benchmark makes (the op, the
     Server call, the Engine call).
   - [Stage]: a stage duration the engine reported through its Metrics
     collector ([collect_metrics = true]).  Only the duration is known;
     the span is placed end to end with its synthesized siblings from the
     parent's start.
   - [Replay]: the duration of the same call repeated beside the op
     (e.g. parsing the same SQL text again), standing in for a sub-step
     the public API does not time.  Placed like a stage, after the
     stages; being an estimate, it is cut to the time its parent has
     left (see {!room}).

   A span's self time is its duration minus its children's durations;
   the layer metrics are self times summed by span name. *)

type kind = Call | Stage | Replay

let kind_label = [| "call"; "stage"; "replay" |]
let int_of_kind = function Call -> 0 | Stage -> 1 | Replay -> 2

type t = {
  mutable n : int;
  mutable tag : int array;  (** name id * 4 + kind *)
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  cursor : (int, int) Hashtbl.t;
      (** next start of a synthesized child, per parent; cleared by {!settle} *)
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    tag = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    names = Hashtbl.create 32;
    name_of = [||];
    cursor = Hashtbl.create 16;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let add t ~kind ~name ~parent ~req ~start ~stop =
  if t.n = Array.length t.tag then begin
    t.tag <- grow t.tag;
    t.start <- grow t.start;
    t.stop <- grow t.stop;
    t.parent <- grow t.parent;
    t.req <- grow t.req
  end;
  let i = t.n in
  t.n <- i + 1;
  t.tag.(i) <- (intern t name * 4) + int_of_kind kind;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  i

(** A measured span; its end is set by {!close}. *)
let open_ t ~name ~parent ~req ~start = add t ~kind:Call ~name ~parent ~req ~start ~stop:start

let close t i ~stop = t.stop.(i) <- stop

(** A child of known duration ([Stage] or [Replay]), placed after the
    parent's previously placed synthesized children. *)
let child t ~kind ~name ~parent ~dur_ns =
  let start = Option.value ~default:t.start.(parent) (Hashtbl.find_opt t.cursor parent) in
  Hashtbl.replace t.cursor parent (start + dur_ns);
  add t ~kind ~name ~parent ~req:t.req.(parent) ~start ~stop:(start + dur_ns)

(** Time (ns) a closed span has left for further synthesized children. *)
let room t parent =
  t.stop.(parent) - Option.value ~default:t.start.(parent) (Hashtbl.find_opt t.cursor parent)

(** Forget placement state once a request's spans are complete. *)
let settle t = Hashtbl.reset t.cursor

let count t = t.n

let dur t i = t.stop.(i) - t.start.(i)

(* summed duration of each span's children *)
let children_dur t =
  let children = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- children.(p) + dur t i
  done;
  children

(** Self time (ns) summed per span name. *)
let self_by_name t =
  let children = children_dur t in
  let acc = Array.make (Array.length t.name_of) 0 in
  for i = 0 to t.n - 1 do
    let name = t.tag.(i) / 4 in
    acc.(name) <- acc.(name) + dur t i - children.(i)
  done;
  Array.to_list (Array.mapi (fun i s -> (t.name_of.(i), s)) acc)

(** Total duration (ns) of root spans: the end-to-end time the self
    times add up to. *)
let root_total t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then s := !s + dur t i
  done;
  !s

let write t path =
  let oc = open_out path in
  output_string oc "# id\tname\tkind\tstart_ns\tend_ns\tparent\treq\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%d\t%d\n" i t.name_of.(t.tag.(i) / 4)
      kind_label.(t.tag.(i) land 3) t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
  done;
  close_out oc

(** Spans whose children last longer than they do (a negative self
    time), counted per span name. *)
let overdrawn t =
  let children = children_dur t in
  let acc = Hashtbl.create 8 in
  for i = 0 to t.n - 1 do
    if children.(i) > dur t i then begin
      let name = t.name_of.(t.tag.(i) / 4) in
      Hashtbl.replace acc name (1 + Option.value ~default:0 (Hashtbl.find_opt acc name))
    end
  done;
  List.sort compare (Hashtbl.fold (fun n k l -> (n, k) :: l) acc [])
