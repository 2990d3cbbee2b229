(** Arbitrary-width immutable bit vectors.

    A value of type {!t} is a vector of [width] bits. Bit 0 is the least
    significant bit. All operations are purely functional; results are kept
    in canonical form (bits above [width - 1] are zero). Widths may be any
    non-negative integer; the zero-width vector is a valid (unique) value,
    convenient as a concatenation identity. *)

type t

(** {1 Widths} *)

val index_width : int -> int
(** [index_width n] is the number of bits that index [n] items:
    [ceil (log2 n)], and at least 1 (so [index_width 0 = index_width 1 = 1]). *)

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w].
    @raise Invalid_argument if [w < 0]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] takes the low [width] bits of [v].
    @raise Invalid_argument if [v < 0] or [width < 0]. *)

val of_bits : bool list -> t
(** [of_bits bits] builds a vector from a list of bits, least significant
    first; the width is [List.length bits]. *)

val of_binary_string : string -> t
(** [of_binary_string s] parses a string of ['0']/['1'] characters written
    most-significant-bit first (e.g. ["1010"] is 10 over 4 bits). Underscores
    are ignored. @raise Invalid_argument on other characters or if no bit
    character is present. *)

val one_hot : width:int -> int -> t
(** [one_hot ~width i] has exactly bit [i] set.
    @raise Invalid_argument unless [0 <= i < width]. *)

(** {1 Observation} *)

val width : t -> int

val get : t -> int -> bool
(** [get v i] is bit [i]. @raise Invalid_argument unless [0 <= i < width v]. *)

val to_int : t -> int
(** The value as a non-negative OCaml int.
    @raise Invalid_argument if [width v > 62]. *)

val to_binary_string : t -> string
(** Most-significant-bit-first string of ['0']/['1']; [""] for width 0. *)

val popcount : t -> int

val is_zero : t -> bool

val reduce_and : t -> bool
(** True iff every bit is set. For width 0 this is [true] (empty product). *)

val reduce_or : t -> bool

val reduce_xor : t -> bool

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Width and contents must both match. *)

val compare : t -> t -> int
(** Total order: first by width, then by unsigned value. *)

val compare_value : t -> t -> int
(** Unsigned value order of two vectors of equal width.
    @raise Invalid_argument on width mismatch. *)

(** {1 Bitwise operations}

    Binary bitwise operations require equal widths and raise
    [Invalid_argument] otherwise. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val set : t -> int -> bool -> t
(** [set v i b] is [v] with bit [i] replaced by [b]. *)

(** {1 Arithmetic (unsigned, modulo [2^width])} *)

val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t

val ult : t -> t -> bool
(** Unsigned less-than of equal-width vectors. *)

(** {1 Structure} *)

val concat : t list -> t
(** [concat vs] concatenates with the head of the list as the most
    significant part (matching Verilog [{a, b, c}]). *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] is bits [hi..lo] inclusive, width [hi - lo + 1].
    @raise Invalid_argument unless [0 <= lo <= hi < width v]. *)

val resize : t -> int -> t
(** [resize v w] zero-extends or truncates to width [w]. *)

(** {1 Enumeration} *)

val all_values : int -> t Seq.t
(** [all_values w] enumerates all [2^w] vectors of width [w] in increasing
    value order. @raise Invalid_argument if [w < 0] or [w > 24] (guards
    against accidental explosion). *)

val fold_bits : (int -> bool -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_bits f v init] folds [f] over bits from index 0 upwards. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints as [width'bbits], e.g. [4'b1010]. *)

val to_string : t -> string
