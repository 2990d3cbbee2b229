(** Crash-resilient batch execution: {!Pool.map} scheduling plus an
    append-only {!Journal} checkpoint so a killed batch restarts where it
    left off.

    Unlike {!Engine.run} this is generic — items are anything with a stable
    string key and a string codec for results. Fault campaigns
    ([lib/fault]) are the main client.

    Determinism: results come back in item order regardless of [jobs], and
    an item resumed from a journal yields the decoded payload of the
    original run — so a resumed batch's output equals the uninterrupted
    one, byte for byte, as long as [f] itself is a pure function of the
    item. *)

type 'b codec = {
  encode : 'b -> string;
  decode : string -> ('b, string) result;
}

val run :
  ?jobs:int ->
  ?journal:Journal.t ->
  ?resume:Journal.entry list ->
  ?on_checkpoint:(int -> unit) ->
  key:('a -> string) ->
  codec:'b codec ->
  ('a -> 'b) ->
  'a list ->
  ('b, string) result list
(** [run ~key ~codec f items] — results in item order; a failed item is an
    [Error] carrying its rendered {!Pool.error} message, never an
    exception.

    - [jobs]: items run in chunks of [4 * jobs] through {!Pool.map}, so a
      kill loses at most the chunk in flight.
    - [journal]: every settled item is appended (encoded via [codec]) and
      flushed, in item order, chunk by chunk.
    - [resume]: entries from {!Journal.load}; items whose key appears are
      not re-run — [Ok] payloads decode through [codec] (a payload that
      fails to decode is recomputed), [Error] entries are preserved as
      error results. Resumed items are not re-journaled.
    - [on_checkpoint]: called after each newly journaled item with the
      count of items journaled by this run — the hook crash-injection
      tests use to die at a deterministic point. *)
