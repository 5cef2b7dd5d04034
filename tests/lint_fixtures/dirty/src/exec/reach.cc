// Dirty fixture: includes the other rules' fixture headers, so OVC-L010
// flags only src/sort/orphan.h.

#include "common/bad_guard.h"
#include "core/bad_layer.h"
#include "exec/bad_mutex.h"
