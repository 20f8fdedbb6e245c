type t = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
  mutable rev_notes : string list;
}

let create ~title ~columns = { title; columns; rev_rows = []; rev_notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong arity";
  t.rev_rows <- row :: t.rev_rows

let add_note t note = t.rev_notes <- note :: t.rev_notes

(* Display width of a UTF-8 cell: one column per code point (sparkline and
   shade glyphs are three bytes each), i.e. every byte that is not a
   continuation byte. *)
let width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let print ppf t =
  let rows = List.rev t.rev_rows in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun acc row -> max acc (width (List.nth row i))) (width col) rows)
      t.columns
  in
  let pad s w = s ^ String.make (max 0 (w - width s)) ' ' in
  let line row = String.concat "  " (List.map2 pad row widths) in
  Format.fprintf ppf "@.== %s ==@." t.title;
  Format.fprintf ppf "%s@." (line t.columns);
  Format.fprintf ppf "%s@." (String.make (width (line t.columns)) '-');
  List.iter (fun row -> Format.fprintf ppf "%s@." (line row)) rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) (List.rev t.rev_notes)

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Stdlib.Buffer.create (len + 4) in
  if n < 0 then Stdlib.Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Stdlib.Buffer.add_char buf ',';
      Stdlib.Buffer.add_char buf c)
    s;
  Stdlib.Buffer.contents buf

let fmt_pct f = Printf.sprintf "%.1f%%" (100.0 *. f)
let fmt_ratio f = Printf.sprintf "%.2f" f
