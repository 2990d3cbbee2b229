(** And-Inverter Graphs with structural hashing.

    The synthesis tool's bit-level netlist. Nodes are: the constant false
    (node 0), primary inputs, latches (sequential elements, with reset style
    and configuration-bit marking carried over from the RTL), and two-input
    AND gates. Edges are literals — a node index with an optional complement
    bit — so inversion is free.

    Structural hashing plus the local simplification rules
    [and(x, 0) = 0], [and(x, 1) = x], [and(x, x) = x], [and(x, ~x) = 0]
    make AIG construction perform the paper's *constant propagation and
    folding* on the fly: binding a configuration table to constants and
    re-lowering collapses its read logic with no further passes. *)

type t

type lit = private int
(** [2 * node + complement]. *)

val create : unit -> t

(** {1 Literals} *)

val false_ : lit
val true_ : lit
val not_ : lit -> lit
val is_complemented : lit -> bool
val node_of_lit : lit -> int
val lit_of_node : int -> bool -> lit
(** [lit_of_node n c] — literal for node [n], complemented if [c]. *)

(** {1 Construction} *)

val pi : t -> string -> lit
(** New primary input. *)

val latch :
  t -> string -> init:bool -> reset:Rtl.Design.reset_kind -> is_config:bool -> lit
(** New latch; its next-state function must be set with {!set_next} before
    the AIG is used sequentially. *)

val set_next : t -> lit -> lit -> unit
(** [set_next t q d] — [q] must be an uncomplemented latch literal. *)

val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux_ : t -> lit -> lit -> lit -> lit
(** [mux_ t sel a b] = if sel then a else b. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val po : t -> string -> lit -> unit
(** Declare a primary output. Multiple POs may share a name prefix; names
    are kept in declaration order. *)

(** {1 Observation} *)

type kind = Const | Pi | Latch | And

val kind : t -> int -> kind
val num_nodes : t -> int
val num_ands : t -> int
val num_pis : t -> int
val num_pos : t -> int
val num_latches : t -> int
(** Counts are tracked incrementally (O(1)); {!pis}/{!latches}/{!pos}
    below are memoized forward views — all safe inside per-cycle loops. *)

val fanins : t -> int -> lit * lit
(** @raise Invalid_argument unless the node is an [And]. *)

val pi_name : t -> int -> string
val latch_info : t -> int -> string * bool * Rtl.Design.reset_kind * bool
(** name, init, reset kind, is_config. *)

val latch_next : t -> int -> lit
(** @raise Invalid_argument if never set. *)

val pis : t -> int list
val latches : t -> int list
val pos : t -> (string * lit) list

val find_pi : t -> string -> int option
val find_latch : t -> string -> int option

(** {1 Evaluation} *)

val eval_all : t -> pi:(int -> bool) -> latch:(int -> bool) -> (lit -> bool)
(** Evaluate the whole graph once; the returned function reads any literal
    in O(1). *)

(** {1 Structure} *)

val cone : t -> lit list -> int list * int list
(** [cone t roots] = (leaves, internal nodes in topological order): the
    transitive combinational fan-in, where leaves are PIs and latches. *)

val bounded_cone : t -> cap:int -> int -> (int list * int list) option
(** [bounded_cone t ~cap] is a walker: applied to node [n], it returns
    [Some (cone t [lit_of_node n false])] when that cone has at most [cap]
    leaves, and [None] as soon as the walk finds leaf [cap + 1]. The walker
    reuses one node-indexed mark array across calls, so [t] must not grow
    while it is in use. *)

val levels : t -> (int -> int)
(** Combinational level of each node (PIs/latches at level 0). *)

val fanout_counts : t -> int array
(** Number of combinational consumers of each node (latch next-state
    functions and POs count as consumers of their literal's node). *)

val copy_into : t -> into:t -> leaf:(int -> lit) -> lit -> lit
(** [copy_into g ~into ~leaf] rebuilds every node of [g] inside [into], in
    index order: the constant maps to {!false_}, each PI and latch node [n]
    to [leaf n] (called once per node, in that order), and each AND is
    re-made with {!and_}, so structural hashing folds whatever the leaves
    make constant or equal. Returns the map from [g]'s literals to [into]'s;
    latch next-state functions and outputs are left to the caller. *)

val rebuild :
  ?keep_latch:(int -> bool) ->
  ?node:((lit -> lit) -> int -> lit option) ->
  t -> into:t -> lit -> lit
(** [rebuild g ~into] is the pass form of {!copy_into}: it first re-creates
    [g]'s PIs, then each latch [n] with [keep_latch n] (default: all), in
    order and with the same names and flags, and returns [copy], which maps
    [g]'s literals to [into]'s on demand. The first request for any other
    node asks [node copy n] (default: [None]); on [None] an AND is re-made
    as [and_ into (copy f0) (copy f1)], so logic no request reaches is
    dropped. Latches not kept need [node] to map them. Next-state
    functions and outputs are left to the caller. *)

val equal : t -> t -> bool
(** Exact structural identity in O(n): the same node kinds and fanin
    literals at every index, PI names, latch name, init, reset kind,
    configuration flag and next-state literal, and the same PO list in
    order. Equal graphs are indistinguishable to every pass, so a
    deterministic pass maps them to equal results. *)

val digest : t -> string
(** Hex MD5 of everything {!equal} compares, in one pass over the nodes:
    results computed from a graph can be stored under its digest. *)

val stats : t -> string
