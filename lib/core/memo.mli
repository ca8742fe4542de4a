(** A first-insert-wins memo over a pure function, safe to share across
    domains.

    Lookups and inserts take the memo's lock; the computation runs
    outside it.  Two domains racing on one key may both compute the
    value, and the first insert wins, so every caller of a key gets the
    one physically shared value. *)

type ('k, 'v) t

val create : equal:('k -> 'k -> bool) -> ('k, 'v) t
(** An empty memo whose keys compare with [equal].  Entries are kept
    in a list: a memo holds a handful of keys. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value stored for the key, or [compute ()] stored under it. *)
