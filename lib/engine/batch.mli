(** The engine's one keyed batch runner ({!map}, settled against the
    result cache), and the one rule for reading its results journal back
    ({!first_good}), for compile records and fault-campaign site records
    alike.

    Determinism: results come back in item order regardless of [jobs], so
    a batch's output is a pure function of its items as long as [f] is. *)

val map :
  jobs:int ->
  key:('a -> string) ->
  settled:(string -> ('b, Pool.error) result option) ->
  settle:(string -> 'a -> ('b, Pool.error) result -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, Pool.error) result list
(** [map ~jobs ~key ~settled ~settle f items] keys each item once. An
    item runs only if [settled] has no answer for its key (a result or a
    remembered error) and no earlier item had the same key: duplicates
    share one answer. The items that run go through {!Pool.map} on [jobs]
    workers, and each fresh result goes to [settle] with its key and item,
    in item order, before [map] returns. Results come back in item
    order. *)

val first_good :
  decode:(string -> ('b, string) result) -> string list -> 'b option
(** The one rule for reading a journal back, applied to one key's payloads
    in file order: the first that decodes. A payload that fails to decode
    (a corrupt or foreign record) is skipped, so a later good record for
    the same key still counts; with no such record the key is a miss and
    its item runs again. *)
