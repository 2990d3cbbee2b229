(** Fixed-size pool of OCaml 5 domains draining a bounded job queue.

    Every job runs under exception isolation: a crashing job yields
    [Error (Exn _)] for its own promise and nothing else — the pool and the
    other jobs keep going. Timeouts are measured from submission (queueing
    delay counts) and are enforced cooperatively: a job whose deadline has
    passed before a worker picks it up never runs; a job already running is
    not interrupted, but its result is discarded and reported as
    [Error (Timeout _)]. [cancel] likewise drops queued jobs and marks
    running ones so their result is discarded on completion.

    Consequence of cooperative enforcement: a timed-out (or cancelled)
    thunk that is already running {e keeps running on its worker domain
    until it completes} — OCaml domains cannot be killed safely. Its
    promise settles as [Error (Timeout _)] only when the thunk returns
    (so [await] on it blocks that long), and the worker is occupied until
    then; a pool whose every worker is stuck in a long thunk makes no
    progress on queued jobs in the meantime, though it recovers as soon as
    the thunks finish. Size [timeout_s] and job granularity accordingly. *)

type error =
  | Exn of { exn : string; backtrace : string }
      (** the job raised; both strings are for reporting only *)
  | Timeout of float  (** seconds the job had been alive at the deadline *)
  | Cancelled

val error_message : error -> string

type 'a promise

type 'a t
(** A pool whose jobs all produce values of one type. *)

val create : ?queue_cap:int -> jobs:int -> unit -> 'a t
(** [jobs] worker domains ([>= 1]); [queue_cap] bounds the number of queued,
    not-yet-running jobs (default [max 64 (4 * jobs)]).
    @raise Invalid_argument on [jobs < 1] or [queue_cap < 1]. *)

val submit : 'a t -> ?timeout_s:float -> (unit -> 'a) -> 'a promise
(** Blocks while the queue is full.
    @raise Invalid_argument after {!shutdown}. *)

val cancel : 'a promise -> unit

val await : 'a promise -> ('a, error) result
(** Blocks until the job settles. Idempotent. *)

val shutdown : 'a t -> unit
(** Lets queued jobs drain, then joins the workers. Idempotent. *)

val map :
  ?jobs:int ->
  ?queue_cap:int ->
  ?timeout_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** Convenience: run [f] over the list on a transient pool, results in input
    order. [jobs <= 1] (the default) runs inline on the calling domain —
    same isolation and timeout semantics, no domains spawned. *)

val map_retry :
  ?jobs:int ->
  ?timeout_s:float ->
  retries:int ->
  backoff_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list * int
(** {!map}, then up to [retries] waves that re-run only the items still
    failing; wave [n] (from 0) first sleeps [backoff_s * 2^n]. Returns the
    final results in input order and the number of item runs the waves
    made. *)
