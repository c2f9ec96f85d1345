include module type of struct
  include Telemetry.Json
end
