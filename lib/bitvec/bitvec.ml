(* Bit vectors stored as little-endian arrays of 32-bit limbs inside OCaml
   ints. The top limb is kept masked so that structural equality of the limb
   array coincides with value equality. *)

let limb_bits = 32
let limb_mask = 0xFFFFFFFF

type t = { width : int; limbs : int array }

(* The least [w >= 1] with [2^w >= n]; past bit 61, [1 lsl w] would wrap. *)
let index_width n =
  let rec go w =
    if w >= Sys.int_size - 1 || 1 lsl w >= n then max w 1 else go (w + 1)
  in
  go 0

let limb_count width = (width + limb_bits - 1) / limb_bits

(* Mask the top limb in place; [limbs] must already have the right length. *)
let canonicalize width limbs =
  let n = Array.length limbs in
  if n > 0 then begin
    let used = width - (n - 1) * limb_bits in
    let mask = if used >= limb_bits then limb_mask else (1 lsl used) - 1 in
    limbs.(n - 1) <- limbs.(n - 1) land mask
  end;
  { width; limbs }

let zero w =
  if w < 0 then invalid_arg "Bitvec.zero: negative width";
  { width = w; limbs = Array.make (limb_count w) 0 }

let ones w =
  if w < 0 then invalid_arg "Bitvec.ones: negative width";
  canonicalize w (Array.make (limb_count w) limb_mask)

let of_int ~width v =
  if width < 0 then invalid_arg "Bitvec.of_int: negative width";
  if v < 0 then invalid_arg "Bitvec.of_int: negative value";
  let limbs = Array.make (limb_count width) 0 in
  let rec fill i v =
    if i < Array.length limbs && v <> 0 then begin
      limbs.(i) <- v land limb_mask;
      fill (i + 1) (v lsr limb_bits)
    end
  in
  fill 0 v;
  canonicalize width limbs

let width v = v.width

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.get: index out of range";
  v.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set v i b =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.set: index out of range";
  let limbs = Array.copy v.limbs in
  let j = i / limb_bits and k = i mod limb_bits in
  limbs.(j) <- (if b then limbs.(j) lor (1 lsl k)
                else limbs.(j) land lnot (1 lsl k));
  { width = v.width; limbs }

let of_bits bits =
  let width = List.length bits in
  let limbs = Array.make (limb_count width) 0 in
  List.iteri
    (fun i b ->
      if b then
        let j = i / limb_bits in
        limbs.(j) <- limbs.(j) lor (1 lsl (i mod limb_bits)))
    bits;
  { width; limbs }

let of_binary_string s =
  let bits =
    String.fold_left
      (fun acc c ->
        match c with
        | '0' -> false :: acc
        | '1' -> true :: acc
        | '_' -> acc
        | _ -> invalid_arg "Bitvec.of_binary_string: bad character")
      [] s
  in
  if bits = [] then invalid_arg "Bitvec.of_binary_string: empty";
  of_bits bits

let one_hot ~width i =
  if i < 0 || i >= width then invalid_arg "Bitvec.one_hot: index out of range";
  set (zero width) i true

let to_int v =
  if v.width > 62 then invalid_arg "Bitvec.to_int: width exceeds 62";
  Array.to_list v.limbs
  |> List.rev
  |> List.fold_left (fun acc limb -> (acc lsl limb_bits) lor limb) 0

let to_binary_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let popcount v =
  let pop_limb x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  Array.fold_left (fun acc limb -> acc + pop_limb limb) 0 v.limbs

let is_zero v = Array.for_all (fun limb -> limb = 0) v.limbs
let reduce_or v = not (is_zero v)
let reduce_and v = popcount v = v.width
let reduce_xor v = popcount v land 1 = 1

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare_value a b =
  if a.width <> b.width then invalid_arg "Bitvec.compare_value: width mismatch";
  let rec go i =
    if i < 0 then 0
    else
      let c = Stdlib.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c else compare_value a b

let map2 name f a b =
  if a.width <> b.width then invalid_arg (name ^ ": width mismatch");
  canonicalize a.width (Array.init (Array.length a.limbs)
                          (fun i -> f a.limbs.(i) b.limbs.(i)))

let logand a b = map2 "Bitvec.logand" ( land ) a b
let logor a b = map2 "Bitvec.logor" ( lor ) a b
let logxor a b = map2 "Bitvec.logxor" ( lxor ) a b

let lognot a =
  canonicalize a.width (Array.map (fun limb -> lnot limb land limb_mask) a.limbs)

let add a b =
  if a.width <> b.width then invalid_arg "Bitvec.add: width mismatch";
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  canonicalize a.width limbs

let sub a b =
  if a.width <> b.width then invalid_arg "Bitvec.sub: width mismatch";
  add a (add (lognot b) (of_int ~width:a.width (if a.width = 0 then 0 else 1)))

let succ a =
  if a.width = 0 then a else add a (of_int ~width:a.width 1)

let ult a b = compare_value a b < 0

(* The [limb_bits] bits of [limbs] from bit [p] up, zero past the end. *)
let bits_from limbs p =
  let j = p / limb_bits and k = p mod limb_bits in
  let limb i = if i < Array.length limbs then limbs.(i) else 0 in
  if k = 0 then limb j
  else ((limb j lsr k) lor (limb (j + 1) lsl (limb_bits - k))) land limb_mask

let slice v ~hi ~lo =
  if lo < 0 || hi < lo || hi >= v.width then
    invalid_arg "Bitvec.slice: bad range";
  let w = hi - lo + 1 in
  canonicalize w
    (Array.init (limb_count w) (fun i -> bits_from v.limbs (lo + (i * limb_bits))))

let resize v w =
  if w < 0 then invalid_arg "Bitvec.resize: negative width";
  if w = v.width then v
  else if w < v.width then (if w = 0 then zero 0 else slice v ~hi:(w - 1) ~lo:0)
  else begin
    let limbs = Array.make (limb_count w) 0 in
    Array.blit v.limbs 0 limbs 0 (Array.length v.limbs);
    { width = w; limbs }
  end

let concat vs =
  let total = List.fold_left (fun acc v -> acc + v.width) 0 vs in
  (* Head of the list is the most significant part. Each source limb is
     canonical, so it lands in at most two output limbs. *)
  let out = Array.make (limb_count total) 0 in
  let pos = ref total in
  let place v =
    pos := !pos - v.width;
    Array.iteri
      (fun i x ->
        let p = !pos + (i * limb_bits) in
        let j = p / limb_bits and k = p mod limb_bits in
        out.(j) <- out.(j) lor ((x lsl k) land limb_mask);
        if k > 0 && j + 1 < Array.length out then
          out.(j + 1) <- out.(j + 1) lor (x lsr (limb_bits - k)))
      v.limbs
  in
  List.iter place vs;
  { width = total; limbs = out }

let all_values w =
  if w < 0 || w > 24 then invalid_arg "Bitvec.all_values: width out of range";
  Seq.init (1 lsl w) (fun i -> of_int ~width:w i)

let fold_bits f v init =
  let acc = ref init in
  for i = 0 to v.width - 1 do
    acc := f i (get v i) !acc
  done;
  !acc

let to_string v = string_of_int v.width ^ "'b" ^ to_binary_string v
let pp fmt v = Format.pp_print_string fmt (to_string v)
