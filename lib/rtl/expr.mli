(** RTL expressions.

    Word-level combinational expressions. Every expression has a width
    computable by {!width}; the smart constructors check operand widths and
    raise [Invalid_argument] on mismatch, so a constructed expression is
    always well-formed. *)

type unop = Not | Red_and | Red_or | Red_xor

type binop = And | Or | Xor | Add | Sub | Eq | Ne | Ult

type t =
  | Const of Bitvec.t
  | Signal of Signal.t
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (** selector (width 1), then-value, else-value *)
  | Concat of t list  (** head is most significant, as in Verilog [{...}] *)
  | Slice of { e : t; hi : int; lo : int }
  | Table_read of { table : string; addr : t; width : int }

val width : t -> int

(** {1 Smart constructors} *)

val const : Bitvec.t -> t
val of_int : width:int -> int -> t
val signal : Signal.t -> t
val not_ : t -> t
val red_and : t -> t
val red_or : t -> t
val red_xor : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val mux : t -> t -> t -> t
val concat : t list -> t
val slice : t -> hi:int -> lo:int -> t
val bit : t -> int -> t
(** [bit e i] is the 1-bit slice at index [i]. *)

val eq_const : t -> int -> t
(** [eq_const e v] compares against a constant of matching width. *)

val zero_extend : t -> int -> t
(** [zero_extend e w] pads with zero bits up to width [w] (identity if equal).
    @raise Invalid_argument if [w] is smaller than the width of [e]. *)

val table_read : table:string -> width:int -> addr:t -> t

val select : t -> (int * t) list -> default:t -> t
(** [select sel cases ~default] builds a right-leaning mux chain comparing
    [sel] against each constant case value — the RTL image of a case
    statement. *)

(** {1 Traversal} *)

val fold_signals : (Signal.t -> 'a -> 'a) -> t -> 'a -> 'a
val fold_tables : (string -> 'a -> 'a) -> t -> 'a -> 'a

val map_leaves :
  signal:(Signal.t -> t) -> table:(string -> t -> int -> t) -> t -> t
(** [map_leaves ~signal ~table e] rebuilds [e], replacing every signal leaf
    via [signal] and every table read via [table name addr width]. Width
    correctness of the substitution is the caller's burden (checked by the
    smart constructors). *)

val eval : (Signal.t -> Bitvec.t) -> (string -> Bitvec.t -> Bitvec.t) -> t -> Bitvec.t
(** [eval lookup read_table e] — direct interpreter. *)
