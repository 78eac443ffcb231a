(** [Xdb.Server] — the concurrent serving layer over one {!Engine}.

    The paper's setting is XSLT processing inside an RDBMS serving many
    concurrent clients; {!Engine} is a single-caller facade.  A server
    multiplexes {e sessions} — each with its own default
    {!Engine.run_options} — over one shared engine (registry, stats,
    domain pool), from any number of client threads or domains, with:

    - {b admission control}: at most [max_in_flight] requests execute at
      once; up to [max_queue] more wait; past that a request is rejected
      immediately with [Xdb_error.Error (Overloaded _)] instead of
      blocking unboundedly (so overload degrades by rejection, never by
      deadlock);
    - {b fair scheduling}: waiters are served FIFO, except that a session
      already running [per_session_cap] requests is skipped until one of
      its requests finishes — one hot session cannot starve the rest;
    - {b metrics}: per-session and server-wide accepted / rejected /
      queued / completed counts plus queue-wait and service-time
      distributions (histogram buckets and p50/p95/p99), surfaced as one
      {!Metrics} collector so they render through the existing stable
      JSON.

    Requests execute on the calling thread: admission only decides
    {e when} a caller may enter the engine, so the server adds no thread
    pool of its own and composes with [jobs > 1] domain-parallel runs
    (which serialize on the engine's pool). *)

type t
(** A server over one shared engine. *)

type session
(** One client's handle: carries its default run options and its
    fair-share accounting.  Sessions are cheap; open one per client. *)

val create :
  ?max_in_flight:int ->
  ?max_queue:int ->
  ?per_session_cap:int ->
  ?defaults:Engine.run_options ->
  Engine.t ->
  t
(** A server over [engine].  [max_in_flight] (default
    {!Parallel.default_jobs}[ ()]) bounds concurrently executing
    requests; [max_queue] (default 64) bounds waiters beyond that;
    [per_session_cap] (default [max_in_flight]) bounds one session's
    concurrently executing requests; [defaults] (default
    {!Engine.default_run_options}) seeds sessions opened without
    options.  The engine remains caller-owned: {!shutdown} drains the
    server but does not shut the engine down. *)

val engine : t -> Engine.t

val open_session : ?name:string -> ?options:Engine.run_options -> t -> session
(** A new session; [options] override the server defaults for every
    request this session issues (a per-call [?options] overrides both).
    [name] labels the session in metrics (default ["s<id>"]).
    @raise Xdb_error.Error ([Exec]) when the server has been shut down. *)

val close_session : session -> unit
(** Mark the session closed: in-flight requests finish, queued and
    future requests from it raise [Xdb_error.Error (Exec _)].
    Idempotent. *)

val session_name : session -> string

val submit : session -> (Engine.t -> 'a) -> 'a
(** [submit session f] — run [f engine] under admission control: admit
    immediately when capacity allows, otherwise wait in the FIFO queue,
    otherwise reject.  The convenience wrappers below pass the session's
    effective options to the engine; [f] receives the engine directly
    (this is also the hook tests use to hold a slot deterministically).
    Queue-wait and service time are recorded against the session and the
    server.
    @raise Xdb_error.Error ([Overloaded]) when the queue bound is
    exceeded or the server is shutting down; ([Exec]) when the session
    is closed; [f]'s own exceptions propagate (counted as failures). *)

val transform :
  ?options:Engine.run_options -> session -> view_name:string -> stylesheet:string ->
  Engine.run_result
(** {!Engine.transform} under admission control, with the session's
    effective options. *)

val publish :
  ?options:Engine.run_options -> session -> view_name:string -> Engine.run_result
(** {!Engine.publish} under admission control ([options.indent]
    pretty-prints). *)

val execute : session -> string -> Xdb_sql.Engine.result
(** {!Engine.execute} under admission control: any SQL statement,
    including DML — the engine's reader/writer lock serializes writes
    against concurrent reads, the server only decides admission. *)

val prepare : session -> view_name:string -> stylesheet:string -> Engine.stmt
(** {!Engine.prepare} under admission control (compilation shares the
    registry).  The returned statement is engine-wide: it may be pinned
    by the client and re-run across requests and sessions. *)

val transform_stmt :
  ?options:Engine.run_options -> session -> Engine.stmt -> Engine.run_result
(** {!Engine.transform_stmt} under admission control, with the session's
    effective options. *)

val explain : session -> view_name:string -> stylesheet:string -> string
(** {!Engine.explain} under admission control (compilation shares the
    registry, so it is admitted like any other request). *)

val explain_analyze : session -> view_name:string -> stylesheet:string -> string
(** {!Engine.explain_analyze} under admission control. *)

(** {1 Observability} *)

(** Latency distribution summary, milliseconds.  [count], [mean_ms]
    and [max_ms] are exact; the percentiles are nearest-rank over all
    recorded samples, read from a {!Latency} histogram. *)
type summary = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(** The fixed-size accumulator behind every queue-wait and service-time
    distribution: exact count, sum, min and max plus a histogram that
    splits every power of two from [2^-10] ms (about 1 µs) up to
    [2^20] ms (about 17 minutes) into 32 equal buckets.  Its size never
    grows with the number of samples.

    A reported percentile is the midpoint of the bucket holding the
    exact nearest-rank sample, clamped to the exact min and max.  For
    samples from [2^-10] ms to [2^20] ms it is within
    {!Latency.relative_error} (1/64, about 1.6 %) of the exact value,
    relatively; below [2^-10] ms it is within [2^-10] ms absolutely.
    Metrics' coarse [_le_]/[_gt_] counters are summed from these
    buckets, so a sample within that error of a coarse bound may be
    counted on either side of it. *)
module Latency : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  (** Record one latency, milliseconds. *)

  val summary : t -> summary

  val relative_error : float
  (** Largest relative error of a reported percentile, 1/64. *)
end

(** One side's counters and distributions — the whole server or one
    session.  [queued] counts requests that had to wait (it is not a
    gauge); [queue_depth] and [in_flight] are instantaneous. *)
type snapshot = {
  accepted : int;  (** admitted to execute (immediately or after a wait) *)
  rejected : int;  (** refused with [Overloaded] *)
  queued : int;  (** admitted requests that waited in the queue first *)
  completed : int;  (** finished without raising *)
  failed : int;  (** finished by raising (still released their slot) *)
  in_flight : int;
  queue_depth : int;
  queue_wait : summary;  (** time from arrival to execution start *)
  service : summary;  (** time inside the engine call *)
}

val snapshot : t -> snapshot
val session_snapshot : session -> snapshot

val metrics : t -> Metrics.t
(** A fresh collector holding the server-wide counters, queue-wait and
    service-time histogram buckets ([…_le_<bound>ms] / […_gt_1000ms]),
    percentile stages, the shared engine's result-cache counters
    ([result_cache_hits]/[…_misses]/[…_invalidations]/[…_evictions]),
    and per-session [session.<name>.<counter>] counters — renderable
    with {!Metrics.to_json}. *)

val metrics_json : t -> string
(** [Metrics.to_json (metrics t)]. *)

val shutdown : t -> unit
(** Stop admitting (new and queued requests are rejected with
    [Overloaded]), wait for in-flight requests to drain, and return.
    Idempotent.  Does {e not} shut down the underlying engine. *)
