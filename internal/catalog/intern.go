package catalog

import "wattio/internal/ssd"

// Interned per-class configs. The public SSD*Config constructors build
// a fresh value (with fresh slices) on every call so callers may tweak
// them, but a fleet materializing 10⁵-10⁶ instances of the same class
// must not copy a config, or allocate its tables, per device. Every
// device the catalog builds points at its class's one Config here, and
// the device models only ever read it: Config() hands out a copy named
// after the instance, and PowerStates() the shared, read-only table.
var (
	ssdTemplates = map[string]*ssd.Config{
		"SSD1": ref(SSD1Config()),
		"SSD2": ref(SSD2Config()),
		"SSD3": ref(SSD3Config()),
		"EVO":  ref(EVOConfig()),
		"C960": ref(C960Config()),
	}
	hddTemplate = ref(HDDConfig())
)

// ref returns a pointer to a copy of v.
func ref[T any](v T) *T { return &v }
