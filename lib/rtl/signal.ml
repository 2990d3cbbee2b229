type t = { name : string; width : int }

let is_atom n = n <> "" && not (String.exists (String.contains " \t\n\r();") n)

let make name width =
  if width <= 0 then invalid_arg "Signal.make: width must be positive";
  if not (is_atom name) then
    invalid_arg (Printf.sprintf "Signal.make: %S is not a valid name atom" name);
  { name; width }
