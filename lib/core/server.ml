(* Concurrent serving layer: sessions + admission control + fair
   FIFO scheduling over one shared Engine.  See server.mli.

   Locking model: one server mutex guards every mutable field (queue,
   counters, latency histograms).  Requests execute on the calling thread
   outside the lock; the lock is only held to admit, to release, and to
   snapshot.  Waiters block on [sched], re-checking eligibility after
   every broadcast (a release, a close, or shutdown). *)

type summary = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* Latency accumulator of fixed size: exact count/sum/min/max plus a
   histogram indexed by the sample's own float exponent and top mantissa
   bits (no logarithm per sample).  Bucket 0 holds [0, floor_ms); above
   it every power of two splits into [2^sub_bits] equal buckets, the
   last one also holding everything past the top.  A bucket stands for
   its midpoint, within half a bucket width — 1/2^(sub_bits+1) of its
   lower edge — of every value in it. *)
module Latency = struct
  let floor_ms = 1.0 /. 1024.0 (* a power of two: scaling by it is exact *)
  let sub_bits = 5
  let octaves = 30 (* up to 2^20 ms, about 17 minutes *)
  let n_buckets = 1 + (octaves lsl sub_bits)
  let relative_error = 1.0 /. float_of_int (2 lsl sub_bits)

  (* an all-float record is stored flat: updates box nothing *)
  type exact = { mutable sum : float; mutable min : float; mutable max : float }
  type t = { counts : int array; mutable n : int; exact : exact }

  let create () =
    { counts = Array.make n_buckets 0; n = 0; exact = { sum = 0.0; min = infinity; max = 0.0 } }

  (* ms / floor_ms >= 1 has a biased exponent of 1023 + octave *)
  let bucket ms =
    if not (ms >= floor_ms) then 0
    else
      let bits = Int64.bits_of_float (ms /. floor_ms) in
      let v = Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits)) in
      min (n_buckets - 1) (1 + v - (1023 lsl sub_bits))

  let midpoint i =
    if i = 0 then floor_ms /. 2.0
    else
      let octave = (i - 1) lsr sub_bits and m = (i - 1) land ((1 lsl sub_bits) - 1) in
      Float.ldexp
        (floor_ms *. (1.0 +. ((float_of_int m +. 0.5) /. float_of_int (1 lsl sub_bits))))
        octave

  let add l ms =
    let i = bucket ms in
    l.counts.(i) <- l.counts.(i) + 1;
    l.n <- l.n + 1;
    let e = l.exact in
    e.sum <- e.sum +. ms;
    if ms < e.min then e.min <- ms;
    if ms > e.max then e.max <- ms

  (* nearest rank: the bucket holding the ceil(q n)-th smallest sample,
     its midpoint clamped to the exact [min, max] *)
  let percentile l q =
    let rank = max 1 (int_of_float (ceil (q *. float_of_int l.n))) in
    let rec find i seen =
      let seen = seen + l.counts.(i) in
      if seen >= rank || i = n_buckets - 1 then i else find (i + 1) seen
    in
    Float.min l.exact.max (Float.max l.exact.min (midpoint (find 0 0)))

  let summary l =
    if l.n = 0 then
      { count = 0; mean_ms = 0.0; p50_ms = 0.0; p95_ms = 0.0; p99_ms = 0.0; max_ms = 0.0 }
    else
      {
        count = l.n;
        mean_ms = l.exact.sum /. float_of_int l.n;
        p50_ms = percentile l 0.50;
        p95_ms = percentile l 0.95;
        p99_ms = percentile l 0.99;
        max_ms = l.exact.max;
      }

  (* [(midpoint, count)] of the non-empty buckets, ascending *)
  let buckets l =
    List.filter_map
      (fun i -> if l.counts.(i) = 0 then None else Some (midpoint i, l.counts.(i)))
      (List.init n_buckets Fun.id)
end

(* one side's counters: the server or one session *)
type side = {
  mutable accepted : int;
  mutable rejected : int;
  mutable queued : int;
  mutable completed : int;
  mutable failed : int;
  queue_wait : Latency.t;
  service : Latency.t;
}

let side_create () =
  {
    accepted = 0;
    rejected = 0;
    queued = 0;
    completed = 0;
    failed = 0;
    queue_wait = Latency.create ();
    service = Latency.create ();
  }

type session = {
  server : t;
  sname : string;
  s_options : Engine.run_options;
  mutable s_in_flight : int;
  mutable closed : bool;
  s_side : side;
}

and t = {
  eng : Engine.t;
  max_in_flight : int;
  max_queue : int;
  per_session_cap : int;
  defaults : Engine.run_options;
  lock : Mutex.t;
  sched : Condition.t;
  mutable stopped : bool;
  mutable in_flight : int;
  mutable next_ticket : int;
  mutable waiting : (int * session) list;  (* ascending ticket = FIFO *)
  mutable sessions : session list;  (* newest first, for metrics *)
  mutable next_session : int;
  side : side;
}

let create ?max_in_flight ?(max_queue = 64) ?per_session_cap
    ?(defaults = Engine.default_run_options) eng =
  let max_in_flight =
    max 1 (match max_in_flight with Some n -> n | None -> Parallel.default_jobs ())
  in
  {
    eng;
    max_in_flight;
    max_queue = max 0 max_queue;
    per_session_cap =
      max 1 (match per_session_cap with Some n -> n | None -> max_in_flight);
    defaults;
    lock = Mutex.create ();
    sched = Condition.create ();
    stopped = false;
    in_flight = 0;
    next_ticket = 0;
    waiting = [];
    sessions = [];
    next_session = 0;
    side = side_create ();
  }

let engine t = t.eng

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let exec_error m = Xdb_error.Error (Xdb_error.Exec m)
let overloaded m = Xdb_error.Error (Xdb_error.Overloaded m)

let open_session ?name ?options t =
  locked t (fun () ->
      if t.stopped then raise (exec_error "server has been shut down");
      t.next_session <- t.next_session + 1;
      let sname =
        match name with Some n -> n | None -> Printf.sprintf "s%d" t.next_session
      in
      let sess =
        {
          server = t;
          sname;
          s_options = Option.value options ~default:t.defaults;
          s_in_flight = 0;
          closed = false;
          s_side = side_create ();
        }
      in
      t.sessions <- sess :: t.sessions;
      sess)

let close_session sess =
  locked sess.server (fun () ->
      sess.closed <- true;
      (* wake its queued requests so they raise instead of waiting *)
      Condition.broadcast sess.server.sched)

let session_name sess = sess.sname

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Called under the lock.  A request with [ticket] may start when the
   server has a free slot, its session is under its fair-share cap, and
   every earlier waiter is blocked by its own session cap (FIFO with
   per-session-cap skip: earlier waiters that *could* run win; earlier
   waiters whose session is saturated are stepped over). *)
let eligible t ticket sess =
  t.in_flight < t.max_in_flight
  && sess.s_in_flight < t.per_session_cap
  && List.for_all
       (fun (k, s) -> k >= ticket || s.s_in_flight >= t.per_session_cap)
       t.waiting

(* under the lock: take the slot *)
let start t sess =
  t.in_flight <- t.in_flight + 1;
  sess.s_in_flight <- sess.s_in_flight + 1;
  t.side.accepted <- t.side.accepted + 1;
  sess.s_side.accepted <- sess.s_side.accepted + 1

let reject t sess reason =
  t.side.rejected <- t.side.rejected + 1;
  sess.s_side.rejected <- sess.s_side.rejected + 1;
  raise (overloaded reason)

(* Admit one request: returns the queue wait in ms (0 when admitted
   immediately).  Raises Overloaded / Exec per the .mli contract. *)
let acquire sess =
  let t = sess.server in
  locked t (fun () ->
      if sess.closed then raise (exec_error ("session " ^ sess.sname ^ " is closed"));
      if t.stopped then reject t sess "server is shutting down";
      let ticket = t.next_ticket in
      t.next_ticket <- ticket + 1;
      if eligible t ticket sess then (
        start t sess;
        0.0)
      else if List.length t.waiting >= t.max_queue then
        reject t sess
          (Printf.sprintf "%d in flight, queue of %d full" t.in_flight t.max_queue)
      else begin
        t.waiting <- t.waiting @ [ (ticket, sess) ];
        t.side.queued <- t.side.queued + 1;
        sess.s_side.queued <- sess.s_side.queued + 1;
        let t0 = Xdb_rel.Clock.now_ns () in
        let remove () =
          t.waiting <- List.filter (fun (k, _) -> k <> ticket) t.waiting;
          (* removal may unblock shutdown's drain wait or later waiters *)
          Condition.broadcast t.sched
        in
        let rec wait () =
          if t.stopped then (
            remove ();
            reject t sess "server is shutting down")
          else if sess.closed then (
            remove ();
            raise (exec_error ("session " ^ sess.sname ^ " is closed")))
          else if eligible t ticket sess then (
            remove ();
            start t sess)
          else (
            Condition.wait t.sched t.lock;
            wait ())
        in
        wait ();
        Xdb_rel.Clock.ms_since t0
      end)

let release sess ~queue_wait_ms ~service_ms ~ok =
  let t = sess.server in
  locked t (fun () ->
      t.in_flight <- t.in_flight - 1;
      sess.s_in_flight <- sess.s_in_flight - 1;
      List.iter
        (fun s ->
          Latency.add s.queue_wait queue_wait_ms;
          Latency.add s.service service_ms;
          if ok then s.completed <- s.completed + 1 else s.failed <- s.failed + 1)
        [ t.side; sess.s_side ];
      Condition.broadcast t.sched)

let effective_options ?options sess =
  match options with Some o -> o | None -> sess.s_options

let submit sess f =
  let queue_wait_ms = acquire sess in
  let t0 = Xdb_rel.Clock.now_ns () in
  let finish ok = release sess ~queue_wait_ms
      ~service_ms:(Xdb_rel.Clock.ms_since t0) ~ok
  in
  match f sess.server.eng with
  | v ->
      finish true;
      v
  | exception e ->
      finish false;
      raise e

let transform ?options sess ~view_name ~stylesheet =
  let options = effective_options ?options sess in
  submit sess (fun eng -> Engine.transform ~options eng ~view_name ~stylesheet)

let publish ?options sess ~view_name =
  let options = effective_options ?options sess in
  submit sess (fun eng -> Engine.publish ~options eng ~view_name)

let execute sess text = submit sess (fun eng -> Engine.execute eng text)

(* pinned statements: prepared once (under admission control, since
   compilation shares the registry), reusable across requests *)
let prepare sess ~view_name ~stylesheet =
  submit sess (fun eng -> Engine.prepare eng ~view_name ~stylesheet)

let transform_stmt ?options sess stmt =
  let options = effective_options ?options sess in
  submit sess (fun eng -> Engine.transform_stmt ~options eng stmt)

let explain sess ~view_name ~stylesheet =
  submit sess (fun eng -> Engine.explain eng ~view_name ~stylesheet)

let explain_analyze sess ~view_name ~stylesheet =
  submit sess (fun eng -> Engine.explain_analyze eng ~view_name ~stylesheet)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  accepted : int;
  rejected : int;
  queued : int;
  completed : int;
  failed : int;
  in_flight : int;
  queue_depth : int;
  queue_wait : summary;
  service : summary;
}

let snapshot_side (side : side) ~in_flight ~queue_depth =
  {
    accepted = side.accepted;
    rejected = side.rejected;
    queued = side.queued;
    completed = side.completed;
    failed = side.failed;
    in_flight;
    queue_depth;
    queue_wait = Latency.summary side.queue_wait;
    service = Latency.summary side.service;
  }

let snapshot t =
  locked t (fun () ->
      snapshot_side t.side ~in_flight:t.in_flight ~queue_depth:(List.length t.waiting))

let session_snapshot sess =
  locked sess.server (fun () ->
      let depth =
        List.length (List.filter (fun (_, s) -> s == sess) sess.server.waiting)
      in
      snapshot_side sess.s_side ~in_flight:sess.s_in_flight ~queue_depth:depth)

(* histogram bucket upper bounds, milliseconds *)
let bucket_bounds = [| 1.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 |]

let bucket_name prefix i =
  if i < Array.length bucket_bounds then
    Printf.sprintf "%s_le_%gms" prefix bucket_bounds.(i)
  else Printf.sprintf "%s_gt_%gms" prefix bucket_bounds.(Array.length bucket_bounds - 1)

(* coarse buckets from the fine ones: a fine bucket counts where its
   midpoint falls *)
let bucketize m prefix l =
  let counts = Array.make (Array.length bucket_bounds + 1) 0 in
  List.iter
    (fun (ms, c) ->
      let rec slot i =
        if i >= Array.length bucket_bounds then i
        else if ms <= bucket_bounds.(i) then i
        else slot (i + 1)
      in
      let i = slot 0 in
      counts.(i) <- counts.(i) + c)
    (Latency.buckets l);
  Array.iteri (fun i c -> Metrics.set_counter m (bucket_name prefix i) c) counts

let metrics t =
  let m = Metrics.create () in
  locked t (fun () ->
      let side = t.side in
      List.iter
        (fun (name, v) -> Metrics.set_counter m name v)
        [
          ("accepted", side.accepted);
          ("rejected", side.rejected);
          ("queued", side.queued);
          ("completed", side.completed);
          ("failed", side.failed);
          ("in_flight", t.in_flight);
          ("queue_depth", List.length t.waiting);
          ("sessions_total", t.next_session);
          ( "sessions_open",
            List.length (List.filter (fun s -> not s.closed) t.sessions) );
          ("max_in_flight", t.max_in_flight);
          ("max_queue", t.max_queue);
          ("per_session_cap", t.per_session_cap);
        ];
      bucketize m "queue_wait" side.queue_wait;
      bucketize m "service" side.service;
      (* the shared engine's result cache, so one scrape sees both the
         admission picture and the cache hit rate behind it *)
      List.iter
        (fun (name, v) -> Metrics.set_counter m name v)
        (Engine.result_cache_counters t.eng);
      List.iter
        (fun (prefix, l) ->
          let s = Latency.summary l in
          Metrics.add_ms m (prefix ^ "_p50_ms") s.p50_ms;
          Metrics.add_ms m (prefix ^ "_p95_ms") s.p95_ms;
          Metrics.add_ms m (prefix ^ "_p99_ms") s.p99_ms;
          Metrics.add_ms m (prefix ^ "_total_ms") l.Latency.exact.sum)
        [ ("queue_wait", side.queue_wait); ("service", side.service) ];
      List.iter
        (fun sess ->
          List.iter
            (fun (name, v) ->
              Metrics.set_counter m
                (Printf.sprintf "session.%s.%s" sess.sname name)
                v)
            [
              ("accepted", sess.s_side.accepted);
              ("rejected", sess.s_side.rejected);
              ("completed", sess.s_side.completed);
            ])
        (List.rev t.sessions));
  m

let metrics_json t = Metrics.to_json (metrics t)

let shutdown t =
  locked t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.sched;
      (* queued requests reject themselves on wake; wait for the queue to
         empty and the in-flight work to finish *)
      while t.in_flight > 0 || t.waiting <> [] do
        Condition.wait t.sched t.lock
      done)
