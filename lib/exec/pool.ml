(* Domain pool with per-worker queues, work stealing and helping futures.

   Layout: [size - 1] worker queues, each a FIFO behind its own small
   mutex, with submissions distributed round-robin.  A worker drains its
   own queue first and steals from the others when it runs dry, so load
   imbalance self-corrects without any shared-queue contention.  Futures
   carry their own mutex + condition: a completion wakes exactly the
   domains parked on that future, and the pool-wide idle condition is
   touched only when a push finds workers asleep — the two hot-path
   global serialization points of the original single-FIFO design (one
   mutex around every push/pop, one broadcast per completion) are gone.

   [await] never parks while work is queued: a pending future makes the
   caller pop and run tasks itself, which both keeps the caller
   productive and makes nested submit/await (tasks that fan out
   sub-tasks on the same pool) deadlock-free — the dependency chain
   always has a domain running its head.

   Pools of size 1 take none of these locks: [submit] runs the thunk
   inline and [await] just unpacks the result, so the sequential
   fallback costs nothing and behaves exactly like direct calls. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type worker_queue = { qlock : Mutex.t; tasks : (unit -> unit) Queue.t }

type t = {
  size : int;
  queues : worker_queue array; (* length [size - 1]; empty for size 1 *)
  rr : int Atomic.t; (* round-robin submission cursor *)
  pending : int Atomic.t; (* tasks pushed but not yet popped *)
  sleepers : int Atomic.t; (* workers parked on [idle_cond] *)
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
  stopped : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

(* Each future has its own mutex + condition so a completion wakes only
   the domains parked on *that* future.  Broadcasting a pool-wide
   condition on every completion woke every idle worker and every
   helper just to re-check their queues and sleep again — a thundering
   herd that grew with the domain count and showed up as negative
   scaling in E18. *)
type 'a future = {
  pool : t;
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable cell : 'a state;
}

let run_now f =
  match f () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

let size pool = pool.size

let make_future pool cell =
  { pool; fmutex = Mutex.create (); fcond = Condition.create (); cell }

(* Resolve under the future's own lock: the lock edge publishes the
   task's side effects (e.g. view-state mutations) to awaiters. *)
let resolve fut result =
  Mutex.lock fut.fmutex;
  fut.cell <- result;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmutex

let resolved fut =
  Mutex.lock fut.fmutex;
  let r = match fut.cell with Pending -> false | Done _ | Failed _ -> true in
  Mutex.unlock fut.fmutex;
  r

let pop_queue q =
  Mutex.lock q.qlock;
  let r = if Queue.is_empty q.tasks then None else Some (Queue.pop q.tasks) in
  Mutex.unlock q.qlock;
  r

(* Scan all queues starting from [home].  Workers pass their own index
   and count pops from other queues as steals; helping awaiters have no
   queue of their own, so their pops are just help, not steals. *)
let try_pop ?(count_steals = false) pool ~home =
  let n = Array.length pool.queues in
  let rec scan i =
    if i >= n then None
    else
      let j = (home + i) mod n in
      match pop_queue pool.queues.(j) with
      | Some task ->
        Atomic.decr pool.pending;
        if count_steals && j <> home then
          Obs.Metrics.add "ivm_exec_steal_total" 1;
        Some task
      | None -> scan (i + 1)
  in
  scan 0

(* Lost-wakeup-free parking: the worker publishes itself as a sleeper
   (under [idle_mutex]) *before* re-checking [pending]; a submitter
   increments [pending] *before* reading [sleepers].  OCaml atomics are
   sequentially consistent, so a worker that reads pending = 0 ordered
   its sleeper increment before the submitter's pending increment, which
   forces the submitter to read sleepers >= 1 and take the signalling
   path — and the signal itself cannot be lost because the worker holds
   [idle_mutex] from the re-check through [Condition.wait]. *)
let rec worker_loop pool home =
  match try_pop ~count_steals:true pool ~home with
  | Some task ->
    task ();
    worker_loop pool home
  | None ->
    if Atomic.get pool.stopped then () (* queues drained: exit *)
    else begin
      Mutex.lock pool.idle_mutex;
      Atomic.incr pool.sleepers;
      if Atomic.get pool.pending = 0 && not (Atomic.get pool.stopped) then
        Condition.wait pool.idle_cond pool.idle_mutex;
      Atomic.decr pool.sleepers;
      Mutex.unlock pool.idle_mutex;
      worker_loop pool home
    end

let create ?domains () =
  let size =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      size;
      queues =
        Array.init (max 0 (size - 1)) (fun _ ->
            { qlock = Mutex.create (); tasks = Queue.create () });
      rr = Atomic.make 0;
      pending = Atomic.make 0;
      sleepers = Atomic.make 0;
      idle_mutex = Mutex.create ();
      idle_cond = Condition.create ();
      stopped = Atomic.make false;
      workers = [];
    }
  in
  if size > 1 then
    pool.workers <-
      List.init (size - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop pool i));
  pool

let positive_mod x n = ((x mod n) + n) mod n

let wake_sleepers pool n =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.idle_mutex;
    if n >= Atomic.get pool.sleepers then Condition.broadcast pool.idle_cond
    else
      for _ = 1 to n do
        Condition.signal pool.idle_cond
      done;
    Mutex.unlock pool.idle_mutex
  end

let enqueue pool task =
  let n = Array.length pool.queues in
  let slot = positive_mod (Atomic.fetch_and_add pool.rr 1) n in
  (* [pending] goes up before the push so it never undercounts queued
     work; see the parking protocol above [worker_loop]. *)
  Atomic.incr pool.pending;
  let q = pool.queues.(slot) in
  Mutex.lock q.qlock;
  Queue.push task q.tasks;
  Mutex.unlock q.qlock;
  wake_sleepers pool 1

let submit pool f =
  if pool.size <= 1 || Atomic.get pool.stopped then make_future pool (run_now f)
  else begin
    let fut = make_future pool Pending in
    Obs.Metrics.add "ivm_exec_tasks_total" 1;
    enqueue pool (fun () -> resolve fut (run_now f));
    fut
  end

(* One registry bump, one [pending] bump and at most one lock
   acquisition per *queue* for the whole batch, instead of per task —
   this is the submission-overhead amortization that E18 showed the
   per-task path needed. *)
let submit_batch pool fs =
  if pool.size <= 1 || Atomic.get pool.stopped then
    List.map (fun f -> make_future pool (run_now f)) fs
  else begin
    let pairs =
      List.map
        (fun f ->
          let fut = make_future pool Pending in
          (fut, fun () -> resolve fut (run_now f)))
        fs
    in
    let count = List.length pairs in
    if count = 0 then []
    else begin
      Obs.Metrics.add "ivm_exec_tasks_total" count;
      let n = Array.length pool.queues in
      let buckets = Array.make n [] in
      let start = positive_mod (Atomic.fetch_and_add pool.rr count) n in
      List.iteri
        (fun i (_, task) ->
          let slot = (start + i) mod n in
          buckets.(slot) <- task :: buckets.(slot))
        pairs;
      ignore (Atomic.fetch_and_add pool.pending count);
      Array.iteri
        (fun j rev_tasks ->
          match List.rev rev_tasks with
          | [] -> ()
          | tasks ->
            let q = pool.queues.(j) in
            Mutex.lock q.qlock;
            List.iter (fun task -> Queue.push task q.tasks) tasks;
            Mutex.unlock q.qlock)
        buckets;
      wake_sleepers pool count;
      List.map fst pairs
    end
  end

let help_until_resolved fut =
  let pool = fut.pool in
  if pool.size > 1 then begin
    (* Helpers have no home queue; start the scan at a domain-dependent
       offset so concurrent awaiters do not all hammer queue 0. *)
    let home =
      positive_mod (Domain.self () :> int) (Array.length pool.queues)
    in
    let rec help () =
      if not (resolved fut) then begin
        match try_pop pool ~home with
        | Some task ->
          task ();
          help ()
        | None ->
          (* Every queue is empty and the future is unresolved, so its
             task was already popped and is running on another domain
             (a queued task is only ever removed by a domain about to
             run it): park on the future's own condition until that
             domain resolves it.  Nested submit/await stays deadlock-
             free because the domain running our task helps its own
             sub-futures along — the dependency chain always has a
             domain executing its head. *)
          Mutex.lock fut.fmutex;
          let rec wait () =
            match fut.cell with
            | Pending ->
              Condition.wait fut.fcond fut.fmutex;
              wait ()
            | Done _ | Failed _ -> ()
          in
          wait ();
          Mutex.unlock fut.fmutex
      end
    in
    help ()
  end

let await fut =
  help_until_resolved fut;
  match fut.cell with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map_list pool f xs =
  if pool.size <= 1 then List.map f xs
  else List.map await (submit_batch pool (List.map (fun x () -> f x) xs))

let coalesce ~cost ~threshold xs =
  let threshold = max 1 threshold in
  let rec go group group_cost acc = function
    | [] -> List.rev (if group = [] then acc else List.rev group :: acc)
    | x :: rest ->
      let c = max 0 (cost x) in
      if group <> [] && group_cost + c > threshold then
        go [ x ] c (List.rev group :: acc) rest
      else go (x :: group) (group_cost + c) acc rest
  in
  go [] 0 [] xs

let shutdown pool =
  if Atomic.compare_and_set pool.stopped false true then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex
  end;
  let workers =
    (* Take the list under a lock so joining twice is impossible. *)
    Mutex.lock pool.idle_mutex;
    let ws = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.idle_mutex;
    ws
  in
  (* Workers drain every queue before exiting, so queued futures still
     complete; any task that raced past the stopped flag after the
     drain is run here (and a helping awaiter would run it anyway). *)
  List.iter Domain.join workers;
  let rec drain () =
    if Array.length pool.queues > 0 then
      match try_pop pool ~home:0 with
      | Some task ->
        task ();
        drain ()
      | None -> ()
  in
  drain ()

(* Process-wide registry: one pool per requested size, never torn down.
   Managers are cheap to create (tests build hundreds), so giving each
   its own workers would leak a domain per manager. *)
let shared_mutex = Mutex.create ()
let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

let shared ~domains =
  let domains = max 1 domains in
  Mutex.lock shared_mutex;
  let pool =
    match Hashtbl.find_opt shared_pools domains with
    | Some pool -> pool
    | None ->
      let pool = create ~domains () in
      Hashtbl.add shared_pools domains pool;
      pool
  in
  Mutex.unlock shared_mutex;
  pool

let env_domains () =
  match Sys.getenv_opt "IVM_DOMAINS" with
  | None -> None
  | Some raw -> (
    match int_of_string_opt (String.trim raw) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)
