(** Fixed-size domain pool with per-worker queues, work stealing and
    futures.

    Submissions are distributed round-robin over [domains - 1] worker
    queues, each behind its own lock; a worker drains its own queue
    first and steals from the others when it runs dry.  Completions
    signal per-future conditions (never a pool-wide one), and workers
    are woken only when a push finds them asleep, so neither the hot
    submit path nor task completion serializes on a global lock.

    [await] is a {e helping} wait — while its future is pending, the
    awaiting domain pops and runs other queued tasks instead of
    blocking.  This makes nested submission safe (a task may submit
    sub-tasks to the same pool and await them without deadlock) and
    gives an effective parallel degree equal to the pool size.

    A pool of size 1 spawns no domains and runs every submission inline
    in the caller, so sequential behaviour is the graceful fallback on
    single-core hosts and the default when no configuration asks for
    parallelism. *)

type t

type 'a future

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of the given size (clamped to at
    least 1).  Default: [Domain.recommended_domain_count ()]. *)

val size : t -> int
(** Configured pool size (worker domains + the submitting caller). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  On a size-1 or shut-down pool the task runs inline
    in the caller before [submit] returns. *)

val await : 'a future -> 'a
(** Wait for a future, helping run other queued tasks meanwhile.  If the
    task raised, the exception is re-raised here with its original
    backtrace. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: submits all tasks as one batch (one
    metrics bump and at most one lock acquisition per worker queue),
    then awaits them in order, re-raising the first failure.  Callers
    that must not abandon sibling tasks wrap [f] to return a [result].
    Sequential [List.map] on a size-1 pool. *)

val coalesce : cost:('a -> int) -> threshold:int -> 'a list -> 'a list list
(** Greedy in-order grouping by predicted cost: consecutive elements
    are packed into one group until the summed [cost] would exceed
    [threshold], so sub-threshold tasks are submitted together instead
    of individually.  An element whose own cost meets the threshold
    gets a singleton group.  Concatenating the groups yields the input;
    [threshold] is clamped to at least 1 and negative costs count as
    0. *)

val shutdown : t -> unit
(** Drain the queue, join the workers.  Idempotent; safe to call
    concurrently with [submit] (late submissions run inline). *)

val shared : domains:int -> t
(** Process-wide pool registry, one pool per size, created on first
    use and kept for the life of the process.  Lets many short-lived
    clients (e.g. test-suite managers) share workers instead of leaking
    a domain per client. *)

val env_domains : unit -> int option
(** Parsed [IVM_DOMAINS] environment override, if set to a positive
    integer. *)
