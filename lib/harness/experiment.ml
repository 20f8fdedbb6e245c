type stream = Olayout_core.Spike.combo * [ `Base | `Optimized ]

type 'r spec = {
  id : string;
  desc : string;
  live : bool;
  streams : stream list;
  run : Olayout_par.Pool.t option -> Context.t -> 'r;
  tables : 'r -> Table.t list;
  to_json : (scale:string -> 'r -> Olayout_telemetry.Json.t) option;
}

type t = E : 'r spec -> t

let v ~id ~desc ?(live = false) ~streams run tables =
  E { id; desc; live; streams; run; tables; to_json = None }

let id (E e) = e.id
let desc (E e) = e.desc
let live (E e) = e.live
let streams (E e) = e.streams

type artifact = scale:string -> Olayout_telemetry.Json.t

let artifact e r = Option.map (fun to_json ~scale -> to_json ~scale r) e.to_json
let has_artifact (E e) = e.to_json <> None

let exec (E e) pool ctx =
  let r = e.run pool ctx in
  (e.tables r, artifact e r)
