(* Fixed-size domain pool with a chunked work queue and deterministic
   result ordering. See parallel.mli for the contract.

   Scheduling model: one batch at a time. [run] installs a batch (an
   indexed task closure plus bookkeeping), wakes the workers, and then the
   caller itself drains tasks from the same queue until none are left,
   finally waiting for stragglers on [done_cond]. Because the caller is a
   worker, [jobs = 1] spawns no domains and runs everything inline. *)

type batch = {
  task : int -> (exn * Printexc.raw_backtrace) option;
      (* Runs task [i] (outside the pool lock), storing its result in the
         caller's slot array; returns the exception, if any, for the worker
         to record under the lock. *)
  total : int;
  mutable next : int; (* next task index to hand out *)
  mutable live : int; (* tasks handed out but not yet settled *)
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
}

type t = {
  lock : Mutex.t;
  work_cond : Condition.t; (* signalled when a batch arrives / shutdown *)
  done_cond : Condition.t; (* signalled when a batch fully settles *)
  mutable current : batch option;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  n_jobs : int;
}

let default_jobs () = max 1 (Domain.recommended_domain_count ())
let jobs pool = pool.n_jobs

(* Drain tasks from [b] until the queue is empty. Called with [pool.lock]
   held; returns with it held. *)
let drain pool b =
  while b.next < b.total do
    let i = b.next in
    b.next <- i + 1;
    b.live <- b.live + 1;
    Mutex.unlock pool.lock;
    let err = b.task i in
    Mutex.lock pool.lock;
    (match (err, b.first_exn) with
    | Some e, None -> b.first_exn <- Some e
    | _ -> ());
    b.live <- b.live - 1;
    if b.next >= b.total && b.live = 0 then Condition.broadcast pool.done_cond
  done

let worker_loop pool =
  Mutex.lock pool.lock;
  let rec loop () =
    match pool.current with
    | Some b when b.next < b.total ->
        drain pool b;
        loop ()
    | _ ->
        if pool.shutting_down then Mutex.unlock pool.lock
        else (
          Condition.wait pool.work_cond pool.lock;
          loop ())
  in
  loop ()

let create ~jobs =
  let n_jobs = max 1 jobs in
  let pool =
    {
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      current = None;
      shutting_down = false;
      workers = [];
      n_jobs;
    }
  in
  pool.workers <-
    List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let run pool f n =
  if n < 0 then invalid_arg "Parallel.run: negative task count";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let task i =
      match f i with
      | v ->
          results.(i) <- Some v;
          None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let b = { task; total = n; next = 0; live = 0; first_exn = None } in
    Mutex.lock pool.lock;
    if pool.shutting_down then (
      Mutex.unlock pool.lock;
      invalid_arg "Parallel.run: pool has been shut down");
    if pool.current <> None then (
      Mutex.unlock pool.lock;
      invalid_arg "Parallel.run: pool is already running a batch");
    pool.current <- Some b;
    Condition.broadcast pool.work_cond;
    drain pool b;
    while b.live > 0 do
      Condition.wait pool.done_cond pool.lock
    done;
    pool.current <- None;
    Mutex.unlock pool.lock;
    (match b.first_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every settled task stored a result *))
      results
  end

let chunk_ranges ~total ~chunks =
  if total <= 0 then []
  else
    let chunks = max 1 (min chunks total) in
    let base = total / chunks and extra = total mod chunks in
    let rec go i lo acc =
      if i >= chunks then List.rev acc
      else
        let len = base + if i < extra then 1 else 0 in
        go (i + 1) (lo + len) ((lo, lo + len) :: acc)
    in
    go 0 0 []

let shutdown pool =
  Mutex.lock pool.lock;
  let already = pool.shutting_down in
  pool.shutting_down <- true;
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.lock;
  if not already then List.iter Domain.join pool.workers

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
