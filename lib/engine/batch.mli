(** The engine's one keyed batch runner, and its crash-resilient form.

    {!map} serves both kinds of batch: {!Engine.run} settles synthesis
    jobs against the result cache, and {!run} settles fault sites against
    an append-only {!Journal}, so a killed campaign restarts where it left
    off. Fault campaigns ([lib/fault]) are {!run}'s main client. Both read
    a journal back through {!first_good}.

    Determinism: results come back in item order regardless of [jobs], and
    an item resumed from a journal yields the decoded payload of the
    original run — so a resumed batch's output equals the uninterrupted
    one, byte for byte, as long as [f] itself is a pure function of the
    item. *)

val map :
  jobs:int ->
  key:('a -> string) ->
  settled:(string -> 'b option) ->
  settle:(string -> ('b, Pool.error) result -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, Pool.error) result list
(** [map ~jobs ~key ~settled ~settle f items] keys each item once. An
    item runs only if [settled] has no answer for its key and no earlier
    item had the same key: duplicates share one answer. The items that run
    go through {!Pool.map} on [jobs] workers, and each fresh result goes
    to [settle], in item order, before [map] returns. Results come back in
    item order. *)

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
(** [run ~key ~codec f items] is {!map} over chunks of the items; a failed
    item is an [Error] carrying its rendered {!Pool.error} message, never
    an exception.

    - [jobs]: items run in chunks of [4 * jobs], so a kill loses at most
      the chunk in flight.
    - [journal]: every settled item is appended (encoded via [codec]) and
      flushed, in item order, chunk by chunk.
    - [resume]: entries from {!Journal.load}; items that
      {!first_good} settles are not re-run, and an item settled by an
      error record stays an error result. Resumed items are not
      re-journaled.
    - [on_checkpoint]: called after each newly journaled item with the
      count of items journaled by this run — the hook crash-injection
      tests use to die at a deterministic point. *)

val records : Journal.entry list -> (string, (string, string) result) Hashtbl.t
(** Undecoded; [Hashtbl.find_all] gives a key's values in file order. *)

val first_good :
  decode:(string -> ('b, string) result) ->
  (string, string) result list ->
  ('b, string) result option
(** The one rule for reading a journal back, applied to one key's
    {!records}: its first record whose payload decodes, or its first error
    record, whichever comes first. A payload that fails to decode is
    skipped, so a later good record for the same key still counts; with no
    such record the item runs again. *)

val pending :
  key:('a -> string) ->
  codec:'b codec ->
  Journal.entry list ->
  'a list ->
  'a list
(** [pending ~key ~codec resume items] is the items, in order, that
    [run ~resume] would run rather than settle from the journal: those
    whose key {!first_good} leaves [None]. A client that precomputes
    work for a batch (the fault campaign's packed stuck-at pass) covers
    exactly these. *)
